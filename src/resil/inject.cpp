#include "resil/inject.hpp"

#include <type_traits>

#include "support/assert.hpp"

namespace ttsc::resil {

namespace {

// Field widths of the modelled instruction encoding (see inject.hpp).
constexpr int kImmBits = 32;
constexpr int kFuBits = 8;
constexpr int kRfBits = 4;
constexpr int kRegBits = 8;
constexpr int kOpcodeBits = 8;
constexpr int kTargetBits = 16;
constexpr int kGuardBits = 4;

/// One walker serves counting, locating and flipping. `pos` accumulates the
/// bit total; over a mutable program the field containing `target` gets one
/// bit XORed, while a walk over a const program only counts. Using the same
/// traversal for all three keeps the bit numbering and the mutation in
/// lockstep by construction.
struct BitCursor {
  std::uint64_t target;
  std::uint64_t pos = 0;
  bool flipped = false;

  explicit BitCursor(std::uint64_t t = UINT64_MAX) : target(t) {}

  template <typename T>
  void field(T& v, int width) {
    if constexpr (!std::is_const_v<T>) {
      if (!flipped && target >= pos && target < pos + static_cast<std::uint64_t>(width)) {
        v = static_cast<T>(static_cast<std::uint64_t>(v) ^ (1ull << (target - pos)));
        flipped = true;
      }
    }
    pos += static_cast<std::uint64_t>(width);
  }
};

template <typename Move>  // tta::Move, const or not
void walk_move(Move& mv, BitCursor& cur) {
  constexpr bool kMutable = !std::is_const_v<Move>;
  // Guard specifier, encoded as guard+1 (0 = unconditional) so a flip of an
  // unconditional move can *gain* a guard and vice versa, and the decoded
  // index can never go below -1.
  int guard_enc = mv.guard + 1;
  cur.field(guard_enc, kGuardBits);
  if constexpr (kMutable) mv.guard = guard_enc - 1;

  switch (mv.src.kind) {
    case tta::MoveSrc::Kind::Imm: cur.field(mv.src.imm, kImmBits); break;
    case tta::MoveSrc::Kind::FuResult: cur.field(mv.src.unit, kFuBits); break;
    case tta::MoveSrc::Kind::RfRead:
      cur.field(mv.src.unit, kRfBits);
      cur.field(mv.src.reg_index, kRegBits);
      break;
  }

  switch (mv.dst.kind) {
    case tta::MoveDst::Kind::FuOperand: cur.field(mv.dst.unit, kFuBits); break;
    case tta::MoveDst::Kind::FuTrigger: {
      cur.field(mv.dst.unit, kFuBits);
      int op = static_cast<int>(mv.dst.opcode);
      cur.field(op, kOpcodeBits);
      if constexpr (kMutable) mv.dst.opcode = static_cast<ir::Opcode>(op);
      if (mv.is_control) cur.field(mv.target, kTargetBits);
      break;
    }
    case tta::MoveDst::Kind::RfWrite:
      cur.field(mv.dst.unit, kRfBits);
      cur.field(mv.dst.reg_index, kRegBits);
      break;
    case tta::MoveDst::Kind::GuardWrite: cur.field(mv.dst.unit, kGuardBits); break;
  }
}

template <typename MInstr>  // codegen::MInstr, const or not
void walk_minstr(MInstr& in, BitCursor& cur) {
  int op = static_cast<int>(in.op);
  cur.field(op, kOpcodeBits);
  if constexpr (!std::is_const_v<MInstr>) in.op = static_cast<ir::Opcode>(op);
  if (in.dst.valid()) {
    cur.field(in.dst.rf, kRfBits);
    cur.field(in.dst.index, kRegBits);
  }
  for (auto& s : in.srcs) {
    if (s.is_reg()) {
      cur.field(s.reg.rf, kRfBits);
      cur.field(s.reg.index, kRegBits);
    } else {
      cur.field(s.imm, kImmBits);
    }
  }
  for (auto& t : in.targets) cur.field(t, kTargetBits);
}

/// One fetch unit — the pc-granular codeword: a TTA instruction, a VLIW
/// bundle or a scalar instruction, const or not.
template <typename Unit>
void walk_unit(Unit& unit, BitCursor& cur) {
  using U = std::remove_const_t<Unit>;
  if constexpr (std::is_same_v<U, tta::TtaInstruction>) {
    for (auto& mv : unit.moves) walk_move(mv, cur);
  } else if constexpr (std::is_same_v<U, vliw::Bundle>) {
    for (auto& slot : unit.slots) {
      if (slot.has_value()) walk_minstr(slot->instr, cur);
    }
  } else {
    walk_minstr(unit, cur);
  }
}

/// The program's fetch units in bit order.
template <typename Program>
auto& units_of(Program& program) {
  if constexpr (std::is_same_v<std::remove_const_t<Program>, vliw::VliwProgram>) {
    return program.bundles;
  } else {
    return program.instrs;
  }
}

template <typename Program>
std::uint64_t count_bits(const Program& program) {
  BitCursor cur;
  for (const auto& unit : units_of(program)) walk_unit(unit, cur);
  return cur.pos;
}

template <typename Program>
Program flip(const Program& program, std::uint64_t bit) {
  Program copy = program;
  BitCursor cur(bit);
  for (auto& unit : units_of(copy)) walk_unit(unit, cur);
  TTSC_ASSERT(cur.flipped, "imem fault bit index out of range");
  return copy;
}

// Fetch-unit lookup via the same walker that defines the bit numbering (one
// unit at a time, so the boundary bookkeeping can never drift from
// flip_bit).
template <typename Program>
std::uint32_t unit_of_bit(const Program& program, std::uint64_t bit) {
  const auto& units = units_of(program);
  BitCursor cur;
  for (std::size_t i = 0; i < units.size(); ++i) {
    walk_unit(units[i], cur);
    if (bit < cur.pos) return static_cast<std::uint32_t>(i);
  }
  TTSC_ASSERT(false, "imem fault bit index out of range");
  return 0;
}

}  // namespace

std::uint64_t imem_bits(const tta::TtaProgram& program) { return count_bits(program); }
std::uint64_t imem_bits(const vliw::VliwProgram& program) { return count_bits(program); }
std::uint64_t imem_bits(const scalar::ScalarProgram& program) { return count_bits(program); }

tta::TtaProgram flip_bit(const tta::TtaProgram& program, std::uint64_t bit) {
  return flip(program, bit);
}
vliw::VliwProgram flip_bit(const vliw::VliwProgram& program, std::uint64_t bit) {
  return flip(program, bit);
}
scalar::ScalarProgram flip_bit(const scalar::ScalarProgram& program, std::uint64_t bit) {
  return flip(program, bit);
}

std::uint32_t imem_instr_of_bit(const tta::TtaProgram& program, std::uint64_t bit) {
  return unit_of_bit(program, bit);
}
std::uint32_t imem_instr_of_bit(const vliw::VliwProgram& program, std::uint64_t bit) {
  return unit_of_bit(program, bit);
}
std::uint32_t imem_instr_of_bit(const scalar::ScalarProgram& program, std::uint64_t bit) {
  return unit_of_bit(program, bit);
}

}  // namespace ttsc::resil
