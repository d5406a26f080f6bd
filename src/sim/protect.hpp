// Architectural fault-protection semantics shared by all six engine loops
// (TTA/VLIW/scalar, fast and reference paths) — the mitigation counterpart
// of sim/fault.hpp, driven by a machine's declared mach::Protection.
//
// The model is detect-on-consume: codes and checkers sit on the *read*
// side of every protected structure, which is where FPGA soft-core ECC and
// DMR actually compare. A ProtectState tracks which elements currently hold
// corrupted-but-coded contents ("poisoned"), established when a fault is
// applied and cleared when the element is overwritten:
//
//  * RF partitions (Protection::rf) — parity records a poison only when an
//    odd number of bits flipped (an even flip is the classic parity
//    escape); SEC-DED records every flip. On read, SEC-DED corrects a
//    single-bit flip in place (scrubbing the stored value) and detects a
//    double flip; parity detects odd flips. Detection raises a
//    ProtectionDetected trap at the read cycle.
//  * Instruction memory (Protection::imem) — the campaign layer decides
//    per corrupted instruction whether its codeword is correctable
//    (SEC-DED single flip), detectable, or an escape (parity even flip),
//    and poisons the instruction *index*; the fetch check fires when the
//    pc actually reaches it, so never-fetched corruption stays masked
//    exactly like the unprotected model.
//  * FU result registers (Protection::fu, TTA only) — DMR detects any
//    mismatch when the corrupted result is consumed; a mod-3 residue check
//    detects only flips that change the value's residue (the cheap
//    checker's real escape rate).
//  * Guard latches (Protection::guard_tmr) — TMR outvotes the flip at
//    apply time: the fault is suppressed and counted as corrected.
//
// Both execution paths call the same ProtectState methods at equivalent
// architectural points, keyed by flat RF slots (sim/predecode.hpp rf_base
// numbering, which the reference loops reproduce with a local prefix-sum
// table), so a protected run is byte-identical fast==reference. A protected
// run with no faults applied never creates a poison and thus never perturbs
// execution — protected goldens equal unprotected goldens.
//
// Detection traps carry unit = -1 and detail = the flat RF slot, FU index
// or pc. Checkpoint-rollback recovery is resolved by the campaign layer
// (resil/campaign.cpp) from the detection cycle; the simulators only ever
// fail stop with ProtectionDetected.
#pragma once

#include <cstdint>
#include <vector>

#include "mach/machine.hpp"

namespace ttsc::sim {

struct ProtectState {
  /// What the machine declared (copied so the state is self-contained).
  mach::Protection cfg;

  explicit ProtectState(const mach::Protection& p) : cfg(p) {}

  /// Detection/correction tallies, read by the campaign after each run and
  /// exported as "protect.*" counters.
  std::uint64_t rf_corrected = 0;
  std::uint64_t rf_detected = 0;
  std::uint64_t fu_detected = 0;
  std::uint64_t guard_corrected = 0;
  std::uint64_t imem_corrected = 0;
  std::uint64_t imem_detected = 0;

  std::uint64_t corrections() const { return rf_corrected + guard_corrected + imem_corrected; }
  std::uint64_t detections() const { return rf_detected + fu_detected + imem_detected; }

  /// Clear poisons AND tallies (between independent runs).
  void reset() {
    rf_poison_.clear();
    fu_poison_.clear();
    imem_correctable_.clear();
    imem_detectable_.clear();
    rf_corrected = rf_detected = fu_detected = 0;
    guard_corrected = imem_corrected = imem_detected = 0;
  }

  // ---- fault-apply filters (top-of-cycle, before the flip lands) --------

  /// An RF bit-flip with XOR `mask` landed on flat slot `slot`. The flip is
  /// always applied to storage; this records whether the code will notice.
  void on_rf_flip(std::uint32_t slot, std::uint32_t mask) {
    if (cfg.rf == mach::Protection::Code::None) return;
    if (cfg.rf == mach::Protection::Code::Parity && even_bits(mask)) return;  // escape
    merge_poison(rf_poison_, slot, mask);
  }

  /// A TTA FU result-register flip landed on FU `fu`.
  void on_fu_flip(std::uint32_t fu, std::uint32_t mask) {
    if (cfg.fu == mach::Protection::FuCheck::None) return;
    merge_poison(fu_poison_, fu, mask);
  }

  /// A guard-latch flip is about to land. Returns false when TMR outvotes
  /// it (the caller must suppress the flip).
  bool on_guard_flip() {
    if (!cfg.guard_tmr) return true;
    ++guard_corrected;
    return false;
  }

  // ---- read-site checks -------------------------------------------------

  // The two read checks run at every register and FU-result read of a
  // protected fast loop, and the TTA loop reads at one site per transport
  // kind: always inlined, so no site pays a call for the empty poison test.

  /// RF read of flat slot `slot`. SEC-DED corrects a single-bit poison by
  /// scrubbing `*stored` in place (the read then sees the corrected value);
  /// returns true when the code *detects* — the caller raises
  /// ProtectionDetected with detail = slot.
  [[gnu::always_inline]] bool check_rf_read(std::uint32_t slot, std::uint32_t* stored) {
    if (rf_poison_.empty()) return false;
    for (std::size_t i = 0; i < rf_poison_.size(); ++i) {
      if (rf_poison_[i].key != slot) continue;
      const std::uint32_t mask = rf_poison_[i].mask;
      if (cfg.rf == mach::Protection::Code::SecDed && single_bit(mask)) {
        *stored ^= mask;  // scrub
        rf_poison_.erase(rf_poison_.begin() + static_cast<std::ptrdiff_t>(i));
        ++rf_corrected;
        return false;
      }
      if (cfg.rf == mach::Protection::Code::Parity && even_bits(mask)) {
        // Composed flips cancelled the parity error (multi-fault only).
        rf_poison_.erase(rf_poison_.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
      }
      ++rf_detected;
      return true;
    }
    return false;
  }

  /// TTA FU result read of FU `fu`. DMR detects any poison; residue-3
  /// detects only when the flip changed the value mod 3 (otherwise the
  /// poison silently escapes the checker and is dropped). Returns true on
  /// detection — detail = fu.
  [[gnu::always_inline]] bool check_fu_read(std::uint32_t fu, std::uint32_t stored) {
    if (fu_poison_.empty()) return false;
    for (std::size_t i = 0; i < fu_poison_.size(); ++i) {
      if (fu_poison_[i].key != fu) continue;
      if (cfg.fu == mach::Protection::FuCheck::Residue3 &&
          stored % 3u == (stored ^ fu_poison_[i].mask) % 3u) {
        fu_poison_.erase(fu_poison_.begin() + static_cast<std::ptrdiff_t>(i));  // escape
        return false;
      }
      ++fu_detected;
      return true;
    }
    return false;
  }

  enum class ImemAction : std::uint8_t { Clean, Corrected, Detected };

  /// Instruction fetch at `pc`. Correctable codewords scrub on first fetch
  /// (counted once); detectable ones raise ProtectionDetected with
  /// detail = pc.
  ImemAction check_imem_fetch(std::uint32_t pc) {
    if (!imem_correctable_.empty()) {
      for (std::size_t i = 0; i < imem_correctable_.size(); ++i) {
        if (imem_correctable_[i] != pc) continue;
        imem_correctable_.erase(imem_correctable_.begin() + static_cast<std::ptrdiff_t>(i));
        ++imem_corrected;
        return ImemAction::Corrected;
      }
    }
    for (std::uint32_t p : imem_detectable_) {
      if (p == pc) {
        ++imem_detected;
        return ImemAction::Detected;
      }
    }
    return ImemAction::Clean;
  }

  // ---- overwrite clears -------------------------------------------------

  /// A write committed to flat slot `slot`: fresh data, fresh code.
  void clear_rf(std::uint32_t slot) {
    if (rf_poison_.empty()) return;
    erase_key(rf_poison_, slot);
  }

  /// A new result was delivered to FU `fu`.
  void clear_fu(std::uint32_t fu) {
    if (fu_poison_.empty()) return;
    erase_key(fu_poison_, fu);
  }

  // ---- campaign-side imem poisoning -------------------------------------

  /// Mark the instruction at index `pc` as holding a correctable codeword
  /// (the run executes the pristine program; the scrub is counted at the
  /// first fetch).
  void poison_imem_correctable(std::uint32_t pc) { imem_correctable_.push_back(pc); }
  /// Mark the instruction at index `pc` as holding a detected-uncorrectable
  /// codeword (the run executes the pristine program; the fetch traps).
  void poison_imem_detectable(std::uint32_t pc) { imem_detectable_.push_back(pc); }

  bool any_poison() const {
    return !rf_poison_.empty() || !fu_poison_.empty() || !imem_correctable_.empty() ||
           !imem_detectable_.empty();
  }

 private:
  struct Poison {
    std::uint32_t key;
    std::uint32_t mask;
  };

  static bool single_bit(std::uint32_t m) { return m != 0 && (m & (m - 1)) == 0; }
  static bool even_bits(std::uint32_t m) {
    int n = 0;
    for (std::uint32_t v = m; v != 0; v &= v - 1) ++n;
    return (n & 1) == 0;
  }
  static void merge_poison(std::vector<Poison>& v, std::uint32_t key, std::uint32_t mask) {
    for (Poison& p : v) {
      if (p.key == key) {
        p.mask ^= mask;  // a second flip on the same element composes
        if (p.mask == 0) erase_key(v, key);
        return;
      }
    }
    v.push_back({key, mask});
  }
  static void erase_key(std::vector<Poison>& v, std::uint32_t key) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i].key == key) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  std::vector<Poison> rf_poison_;   // key = flat RF slot
  std::vector<Poison> fu_poison_;   // key = FU index
  std::vector<std::uint32_t> imem_correctable_;  // instruction indices
  std::vector<std::uint32_t> imem_detectable_;
};

}  // namespace ttsc::sim
