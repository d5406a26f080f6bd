#include "ir/memory.hpp"

#include <algorithm>
#include <cstring>

namespace ttsc::ir {

const std::uint8_t* PageSet::find(std::uint32_t page) const {
  const auto it = std::lower_bound(index.begin(), index.end(), page);
  if (it == index.end() || *it != page) return nullptr;
  return bytes.data() + static_cast<std::size_t>(it - index.begin()) * Memory::kPageSize;
}

namespace {

/// Calls f(page) for every page set in the bitmap `a | b`, ascending.
template <typename F>
void for_each_page(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b,
                   F&& f) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::uint64_t bits = a[w] | b[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
    }
  }
}

/// The bitmap of `set`'s pages, sized like an image's.
std::vector<std::uint64_t> page_bits(const PageSet& set, std::size_t words) {
  std::vector<std::uint64_t> bits(words, 0);
  for (const std::uint32_t p : set.index) {
    TTSC_ASSERT(p / 64 < words, "page set does not fit the image");
    bits[p / 64] |= std::uint64_t{1} << (p % 64);
  }
  return bits;
}

}  // namespace

void Memory::write_block(std::uint32_t addr, std::span<const std::uint8_t> data) {
  check(addr, static_cast<std::uint32_t>(data.size()));
  if (data.empty()) return;
  for (std::uint32_t p = addr >> kPageShift;
       p <= (addr + static_cast<std::uint32_t>(data.size()) - 1) >> kPageShift; ++p) {
    written_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }
  std::memcpy(bytes_.data() + addr, data.data(), data.size());
}

std::uint32_t Memory::page_len(std::size_t page) const {
  const std::size_t begin = page << kPageShift;
  return static_cast<std::uint32_t>(std::min<std::size_t>(kPageSize, bytes_.size() - begin));
}

void Memory::put_page(std::size_t page, const std::uint8_t* src) {
  std::uint8_t* dst = bytes_.data() + (page << kPageShift);
  if (src != nullptr) {
    std::memcpy(dst, src, page_len(page));
  } else {
    std::memset(dst, 0, page_len(page));
  }
}

bool Memory::operator==(const Memory& other) const {
  if (bytes_.size() != other.bytes_.size()) return false;
  bool equal = true;
  for_each_page(written_, other.written_, [&](std::size_t p) {
    const std::size_t begin = p << kPageShift;
    equal = equal && std::memcmp(bytes_.data() + begin, other.bytes_.data() + begin,
                                 page_len(p)) == 0;
  });
  return equal;
}

void Memory::restore_from(const Memory& base) {
  TTSC_ASSERT(bytes_.size() == base.bytes_.size(), "restore_from needs an image of equal size");
  for_each_page(written_, base.written_, [&](std::size_t p) {
    put_page(p, base.bytes_.data() + (p << kPageShift));
  });
  written_ = base.written_;
}

void Memory::restore(const PageSet& base, const PageSet& delta) {
  std::vector<std::uint64_t> target = page_bits(base, written_.size());
  const std::vector<std::uint64_t> delta_bits = page_bits(delta, written_.size());
  for (std::size_t w = 0; w < target.size(); ++w) target[w] |= delta_bits[w];
  for_each_page(written_, target, [&](std::size_t p) {
    const auto page = static_cast<std::uint32_t>(p);
    const std::uint8_t* src = delta.find(page);
    put_page(p, src != nullptr ? src : base.find(page));
  });
  written_ = std::move(target);
}

PageSet Memory::written_pages() const {
  PageSet out;
  for_each_page(written_, written_, [&](std::size_t p) {
    out.index.push_back(static_cast<std::uint32_t>(p));
    out.bytes.resize(out.bytes.size() + kPageSize, 0);
    std::memcpy(out.bytes.data() + out.bytes.size() - kPageSize,
                bytes_.data() + (p << kPageShift), page_len(p));
  });
  return out;
}

PageSet Memory::pages_differing_from(const PageSet& base) const {
  static constexpr std::uint8_t kZeros[kPageSize] = {};
  PageSet out;
  for_each_page(written_, page_bits(base, written_.size()), [&](std::size_t p) {
    const std::uint8_t* mine = bytes_.data() + (p << kPageShift);
    const std::uint8_t* theirs = base.find(static_cast<std::uint32_t>(p));
    if (std::memcmp(mine, theirs != nullptr ? theirs : kZeros, page_len(p)) == 0) return;
    out.index.push_back(static_cast<std::uint32_t>(p));
    out.bytes.resize(out.bytes.size() + kPageSize, 0);
    std::memcpy(out.bytes.data() + out.bytes.size() - kPageSize, mine, page_len(p));
  });
  return out;
}

}  // namespace ttsc::ir
