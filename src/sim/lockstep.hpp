// Batched lockstep fault-injection execution.
//
// A resilience campaign (resil/campaign.hpp) runs thousands of single-fault
// simulations of the *same* predecoded program, and almost every one of them
// tracks the fault-free golden run bit-for-bit except in a handful of
// locations touched by the flipped bit. The lockstep stepper exploits that:
// one fault-free **leader** executes the program once per batch, and up to
// kMaxLanes faulty lanes ride along as sparse diffs against the leader's
// architectural state —
//
//  * a per-location lane bitmask (structure-of-arrays: one mask word per RF
//    slot / guard / FU port / in-flight ring entry, one value word per
//    (lane, location)) says which lanes differ where, so a clean lane costs
//    nothing in the per-cycle inner loop;
//  * a sorted per-lane byte delta (MemDelta) carries memory divergence from
//    the leader image under an exact-diff invariant: an entry exists iff the
//    lane's byte differs from the leader's current byte;
//  * each lane's sim::FaultSet applies at the top of its cycle, exactly
//    where the scalar simulators apply it.
//
// Each batch runs the leader on the model's own fast loop, instantiated
// with a lane policy whose hooks keep the diffs (sim/lanes.hpp), so each
// model's semantics is written once.
//
// Lanes stay in lockstep only while that sparse representation is exact.
// The moment a lane's *behaviour* could differ from the leader's — a Bnz or
// guard-squash decision flips, a variable-shift amount (and so the timing)
// changes, or a memory address goes out of bounds on one side only — the
// lane is marked diverged and **evicted**: its result comes from the
// existing hardened single-run fast path (harden=true, same predecoded
// program, same cycle budget), so sim/harden.hpp rules and TrapInfo
// semantics are reused byte-for-byte rather than duplicated. That run
// happens at the eviction, into the lane's outcome slot: a scalar lane
// resumes from its state at that point (a sim::Snapshot); VLIW and TTA
// lanes rerun from cycle 0 unless the eviction is a trap lockstep can
// state exactly. A batch's evicted lanes run on one image the caller
// passes (a campaign's pool worker reuses its own), and each keeps its
// final image as the pages where it differs from the batch's initial
// image. Eviction is the universal correctness escape hatch: lockstep only
// ever handles the cases it can represent exactly.
//
// Conversely a lane whose diffs all cancel (the flip was masked) converges:
// once its dirty set, memory delta and fault queue are empty it can never
// differ from the leader again, and its result is the leader's verbatim.
// When the caller already knows the fault-free outcome (the campaign's
// golden run), passing it as `reference` lets a batch stop as soon as every
// lane has converged or been evicted — the big throughput lever for
// masked-dominated fault populations.
//
// Instruction-memory faults are *not* batchable: they change the program
// all lanes decode, so there is no shared leader to diff against. The
// campaign keeps them on the scalar per-injection path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/memory.hpp"
#include "mach/machine.hpp"
#include "scalar/scalar.hpp"
#include "sim/fault.hpp"
#include "sim/predecode.hpp"
#include "tta/tta.hpp"
#include "vliw/vliw.hpp"

namespace ttsc::sim {

/// Batches are capped by the lane-mask width. One 64-bit word keeps the
/// per-instruction dirty checks — the hottest loads in the cascade loop — a
/// single load-and-test; wider masks were measured to cost far more there
/// than they save in shared leader runs.
inline constexpr int kMaxLanes = 64;

/// Sparse per-lane memory diff against the leader image: sorted
/// (address, lane byte) pairs with the exact-diff invariant — an entry
/// exists iff the lane byte differs from the leader's *current* byte, so
/// `empty()` means "lane memory identical to leader memory".
class MemDelta {
 public:
  bool empty() const { return bytes_.empty(); }
  std::size_t size() const { return bytes_.size(); }

  /// Set-or-erase: records `lane_byte` when it differs from `leader_byte`,
  /// erases any entry when they agree (preserving the invariant).
  void set(std::uint32_t addr, std::uint8_t lane_byte, std::uint8_t leader_byte);

  /// The lane's byte at `addr`, or nullptr when it equals the leader's.
  const std::uint8_t* find(std::uint32_t addr) const;

  /// Any entry in [addr, addr + len)?
  bool overlaps(std::uint32_t addr, std::uint32_t len) const;

  std::span<const std::pair<std::uint32_t, std::uint8_t>> entries() const { return bytes_; }

 private:
  std::uint64_t page_bit(std::uint32_t addr) const;

  std::vector<std::pair<std::uint32_t, std::uint8_t>> bytes_;  // sorted by address
  // Conservative coverage summary, consulted before the binary search: every
  // entry lies in [lo_, hi_] and has its 16-byte-page bloom bit set. Erases
  // leave the summary stale-but-superset (it resets when the delta empties),
  // so a miss here proves no overlap while a hit still runs the exact check.
  // This is what keeps the per-load delta scan in the lockstep cascade cheap:
  // most loads probe lanes whose divergent bytes live elsewhere.
  std::uint32_t lo_ = 0xffffffffu;
  std::uint32_t hi_ = 0;
  std::uint64_t pages_ = 0;
};

/// FNV-1a checksum over [addr, addr + len) of the lane's image (`leader`
/// with `delta` laid over it) without building that image.
std::uint64_t checksum_with_delta(const ir::Memory& leader, const MemDelta& delta,
                                  std::uint32_t addr, std::uint32_t len);

/// One lane's outcome. Exactly one of three shapes:
///  * evicted   — `result` and `pages` come from the lane's own hardened
///                fast-path run (resumed or rerun, see above) or,
///                for an out-of-bounds access, the trap lockstep states;
///                `diverge_cycle` is the leader cycle the divergence was
///                detected at; `delta` is empty.
///  * converged — the fault was fully masked: `result` is the leader's
///                verbatim and `delta` is empty (lane memory == leader_mem).
///  * in-diff   — the lane halted with the leader but carries live state
///                diffs: `result` is the leader's with RF/guard/ret overlays
///                applied and `delta` holds the memory divergence.
struct LaneOutcome {
  ExecResult result;
  bool evicted = false;
  bool converged = false;
  std::uint64_t diverge_cycle = 0;
  MemDelta delta;
  /// Evicted: the pages where the lane's final image differs from the
  /// batch's initial image (BatchResult::initial).
  ir::PageSet pages;
};

struct BatchResult {
  /// Fault-free reference outcome (the leader's run, or `reference` when the
  /// batch settled early). leader_mem is always the fault-free final image.
  ExecResult leader;
  ir::Memory leader_mem{0};
  /// The batch's initial image as a sparse image, under evicted lanes'
  /// pages.
  ir::PageSet initial;
  std::vector<LaneOutcome> lanes;
  /// Lanes evicted to their own run: each one's control flow, timing or
  /// trap provably diverged from the leader's.
  std::uint64_t evictions = 0;

  /// Make `image`, any image of the batch's size, lane `lane`'s final
  /// image: the initial image with its pages (evicted), or the leader's
  /// with its delta.
  void lane_image(std::size_t lane, ir::Memory& image) const;
};

/// The simulator of a model's program.
template <typename Program>
using SimOf = std::conditional_t<
    std::is_same_v<Program, scalar::ScalarProgram>, scalar::ScalarSim,
    std::conditional_t<std::is_same_v<Program, vliw::VliwProgram>, vliw::VliwSim, tta::TtaSim>>;

using ScalarBatchResult = BatchResult;
using VliwBatchResult = BatchResult;
using TtaBatchResult = BatchResult;

/// Run up to kMaxLanes faulty instances in lockstep against one fault-free
/// leader. `initial_mem` is the pristine loaded image (copied for the leader
/// and restored for every eviction rerun). Evicted lanes run on `image`,
/// any image of `initial_mem`'s size; it is left holding the last one.
/// Hardened (fail-closed) semantics are always on, matching the campaign's
/// per-injection runs. When `reference` and `reference_mem` (the known
/// fault-free result and final memory) are given, the batch may stop as
/// soon as every lane converged or was evicted.
/// `Program` is any model's program and `Predecoded` its predecoded form.
template <typename Program, typename Predecoded>
BatchResult run_batch(const Program& program, const mach::Machine& machine,
                      const std::shared_ptr<const Predecoded>& pre, const ir::Memory& initial_mem,
                      std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                      ir::Memory& image, const ExecResult* reference,
                      const ir::Memory* reference_mem);

/// run_batch on an eviction image of the batch's own.
BatchResult run_scalar_batch(const scalar::ScalarProgram& program, const mach::Machine& machine,
                             std::shared_ptr<const PredecodedScalar> pre,
                             const ir::Memory& initial_mem,
                             std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                             const ExecResult* reference = nullptr,
                             const ir::Memory* reference_mem = nullptr);

BatchResult run_vliw_batch(const vliw::VliwProgram& program, const mach::Machine& machine,
                           std::shared_ptr<const PredecodedVliw> pre,
                           const ir::Memory& initial_mem,
                           std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                           const ExecResult* reference = nullptr,
                           const ir::Memory* reference_mem = nullptr);

BatchResult run_tta_batch(const tta::TtaProgram& program, const mach::Machine& machine,
                          std::shared_ptr<const PredecodedTta> pre, const ir::Memory& initial_mem,
                          std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                          const ExecResult* reference = nullptr,
                          const ir::Memory* reference_mem = nullptr);

}  // namespace ttsc::sim
