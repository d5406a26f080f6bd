// The value one operation produces, shared by the fast loops of all three
// models (and so by every lockstep leader), the TTA reference loop, and
// every lockstep lane.
#pragma once

#include <cstdint>

#include "ir/opcode.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

/// compute()'s cases as switch statements that store the result in `value`
/// and break; expands inside namespace ttsc. A fast loop that dispatches
/// every opcode in one switch expands them there: calling compute() from
/// that switch's default instead adds a second jump table, and so a second
/// indirect jump, to most operations (the serial scalar and VLIW default
/// campaign ran about 15% slower that way, GCC 12 Release build on a
/// shared 4-vCPU Linux VM).
#define TTSC_COMPUTE_CASES(value, a, b, mem)                                               \
  case ir::Opcode::Add: value = (a) + (b); break;                                          \
  case ir::Opcode::Sub: value = (a) - (b); break;                                          \
  case ir::Opcode::Mul: value = (a) * (b); break;                                          \
  case ir::Opcode::And: value = (a) & (b); break;                                          \
  case ir::Opcode::Ior: value = (a) | (b); break;                                          \
  case ir::Opcode::Xor: value = (a) ^ (b); break;                                          \
  case ir::Opcode::Shl: value = (a) << ((b) & 31); break;                                  \
  case ir::Opcode::Shru: value = (a) >> ((b) & 31); break;                                 \
  case ir::Opcode::Shr:                                                                    \
    value = static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> ((b) & 31)); break; \
  case ir::Opcode::Eq: value = (a) == (b) ? 1 : 0; break;                                  \
  case ir::Opcode::Gt:                                                                     \
    value = static_cast<std::int32_t>(a) > static_cast<std::int32_t>(b) ? 1 : 0; break;    \
  case ir::Opcode::Gtu: value = (a) > (b) ? 1 : 0; break;                                  \
  case ir::Opcode::Sxhw: value = static_cast<std::uint32_t>(sign_extend(a, 16)); break;    \
  case ir::Opcode::Sxqw: value = static_cast<std::uint32_t>(sign_extend(a, 8)); break;     \
  case ir::Opcode::MovI:                                                                   \
  case ir::Opcode::Copy: value = (a); break;                                               \
  case ir::Opcode::Ldw: value = (mem).load32(a); break;                                    \
  case ir::Opcode::Ldh:                                                                    \
    value = static_cast<std::uint32_t>(sign_extend((mem).load16(a), 16)); break;           \
  case ir::Opcode::Ldhu: value = (mem).load16(a); break;                                   \
  case ir::Opcode::Ldq:                                                                    \
    value = static_cast<std::uint32_t>(sign_extend((mem).load8(a), 8)); break;             \
  case ir::Opcode::Ldqu: value = (mem).load8(a); break;

namespace ttsc::sim {

/// Result of `op` on operands `a` and `b`; loads read address `a` from
/// `mem`, any type with ir::Memory's load8/load16/load32 (a lockstep lane
/// reads the leader image through its byte delta). The caller has already
/// bounds-checked the address.
template <typename Mem>
[[gnu::always_inline]] inline std::uint32_t compute(ir::Opcode op, std::uint32_t a,
                                                    std::uint32_t b, const Mem& mem) {
  std::uint32_t value = 0;
  switch (op) {
    TTSC_COMPUTE_CASES(value, a, b, mem)
    default: TTSC_UNREACHABLE("compute: unsupported opcode");
  }
  return value;
}

}  // namespace ttsc::sim
