// The value one operation produces, shared by the TTA simulator's two loops
// and by the three lockstep engines (leader and lanes alike).
#pragma once

#include <cstdint>

#include "ir/opcode.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace ttsc::sim {

/// Result of `op` on operands `a` and `b`; loads read address `a` from
/// `mem`, any type with ir::Memory's load8/load16/load32 (a lockstep lane
/// reads the leader image through its byte delta). The caller has already
/// bounds-checked the address.
template <typename Mem>
[[gnu::always_inline]] inline std::uint32_t compute(ir::Opcode op, std::uint32_t a,
                                                    std::uint32_t b, const Mem& mem) {
  using ir::Opcode;
  switch (op) {
    case Opcode::Add: return a + b;
    case Opcode::Sub: return a - b;
    case Opcode::Mul: return a * b;
    case Opcode::And: return a & b;
    case Opcode::Ior: return a | b;
    case Opcode::Xor: return a ^ b;
    case Opcode::Shl: return a << (b & 31);
    case Opcode::Shru: return a >> (b & 31);
    case Opcode::Shr: return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
    case Opcode::Eq: return a == b ? 1 : 0;
    case Opcode::Gt: return static_cast<std::int32_t>(a) > static_cast<std::int32_t>(b) ? 1 : 0;
    case Opcode::Gtu: return a > b ? 1 : 0;
    case Opcode::Sxhw: return static_cast<std::uint32_t>(sign_extend(a, 16));
    case Opcode::Sxqw: return static_cast<std::uint32_t>(sign_extend(a, 8));
    case Opcode::MovI:
    case Opcode::Copy: return a;
    case Opcode::Ldw: return mem.load32(a);
    case Opcode::Ldh: return static_cast<std::uint32_t>(sign_extend(mem.load16(a), 16));
    case Opcode::Ldhu: return mem.load16(a);
    case Opcode::Ldq: return static_cast<std::uint32_t>(sign_extend(mem.load8(a), 8));
    case Opcode::Ldqu: return mem.load8(a);
    default: TTSC_UNREACHABLE("compute: unsupported opcode");
  }
}

}  // namespace ttsc::sim
