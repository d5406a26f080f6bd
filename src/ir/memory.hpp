// Byte-addressable little-endian memory shared by the IR interpreter and
// every instruction-set simulator, so all backends agree on data semantics.
//
// An image tracks which 4 KiB pages a store or write_block has touched
// since construction. A page never written still holds zeros, so two
// images compare equal exactly when their written pages do, and an image
// is reset to another by copying only the pages written in either. A
// campaign's golden run loads one or two pages and writes about one, so
// this is what lets every injection reuse one image instead of copying
// the whole address space.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ttsc::ir {

/// Whole pages of an image, ascending by page index: a sparse image that is
/// zero outside them (Memory::written_pages), or the pages where one image
/// differs from such a sparse image (Memory::pages_differing_from).
struct PageSet {
  std::vector<std::uint32_t> index;  // ascending page indices
  std::vector<std::uint8_t> bytes;   // Memory::kPageSize bytes per index entry

  /// The page's bytes, or nullptr when the set does not hold it.
  const std::uint8_t* find(std::uint32_t page) const;
  std::size_t byte_size() const { return bytes.size() + index.size() * sizeof(std::uint32_t); }
};

class Memory {
 public:
  static constexpr std::uint32_t kPageShift = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageShift;

  explicit Memory(std::size_t size)
      : bytes_(size, 0), written_((page_count(size) + 63) / 64, 0) {}

  std::size_t size() const { return bytes_.size(); }
  std::size_t num_pages() const { return page_count(bytes_.size()); }

  std::uint8_t load8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[addr];
  }
  std::uint16_t load16(std::uint32_t addr) const {
    check(addr, 2);
    return static_cast<std::uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
  }
  std::uint32_t load32(std::uint32_t addr) const {
    check(addr, 4);
    return static_cast<std::uint32_t>(bytes_[addr]) |
           (static_cast<std::uint32_t>(bytes_[addr + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes_[addr + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes_[addr + 3]) << 24);
  }

  void store8(std::uint32_t addr, std::uint8_t value) {
    check(addr, 1);
    mark(addr, 1);
    bytes_[addr] = value;
  }
  void store16(std::uint32_t addr, std::uint16_t value) {
    check(addr, 2);
    mark(addr, 2);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
  }
  void store32(std::uint32_t addr, std::uint32_t value) {
    check(addr, 4);
    mark(addr, 4);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    bytes_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    bytes_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
  }

  void write_block(std::uint32_t addr, std::span<const std::uint8_t> data);

  std::span<const std::uint8_t> view(std::uint32_t addr, std::uint32_t len) const {
    check(addr, len);
    return {bytes_.data() + addr, len};
  }

  /// True when a store or write_block touched `page` since construction (or
  /// since a restore that left it non-zero); every other page is zero.
  bool page_written(std::size_t page) const {
    return ((written_[page >> 6] >> (page & 63)) & 1u) != 0;
  }

  /// Byte-identical comparison of two images. Only pages written on either
  /// side are compared: the rest hold zeros on both.
  bool operator==(const Memory& other) const;

  /// Make this image byte-identical to `base` (same size), copying only the
  /// pages written in either.
  void restore_from(const Memory& base);

  /// Make this image byte-identical to the sparse image `base` with `delta`
  /// laid over it, copying or clearing only the pages written here or held
  /// by either set.
  void restore(const PageSet& base, const PageSet& delta);

  /// Every written page: this image as a sparse image.
  PageSet written_pages() const;

  /// The pages where this image differs from the sparse image `base`.
  PageSet pages_differing_from(const PageSet& base) const;

  /// FNV-1a over a range; used by workloads/tests to compare backend results.
  std::uint64_t checksum(std::uint32_t addr, std::uint32_t len) const {
    check(addr, len);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint32_t i = 0; i < len; ++i) {
      h ^= bytes_[addr + i];
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  static std::size_t page_count(std::size_t size) {
    return (size + kPageSize - 1) >> kPageShift;
  }

  void check(std::uint32_t addr, std::uint32_t len) const {
    TTSC_ASSERT(static_cast<std::uint64_t>(addr) + len <= bytes_.size(),
                format("memory access out of range: addr=0x%x len=%u size=%zu", addr, len,
                       bytes_.size()));
  }

  /// Record the pages of [addr, addr + len), len in 1..4: an access spans
  /// at most two pages.
  void mark(std::uint32_t addr, std::uint32_t len) {
    const std::uint32_t first = addr >> kPageShift;
    const std::uint32_t last = (addr + len - 1) >> kPageShift;
    written_[first >> 6] |= std::uint64_t{1} << (first & 63);
    written_[last >> 6] |= std::uint64_t{1} << (last & 63);
  }

  /// Bytes of page `page` inside the image (the last page may be short).
  std::uint32_t page_len(std::size_t page) const;
  /// Copy `src` (kPageSize bytes, or nullptr for zeros) into page `page`.
  void put_page(std::size_t page, const std::uint8_t* src);

  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> written_;  // one bit per page
};

}  // namespace ttsc::ir
