// Workload correctness: host-side reference implementations (real SHA-1,
// FIPS-197 AES-128, Blowfish-structured Feistel, IMA ADPCM, Exp-Golomb
// motion decode, guest-program effects) validated against the IR programs
// running on the reference interpreter, plus pinned regression digests.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "ir/interp.hpp"
#include "report/driver.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace ttsc::workloads {
namespace {

struct GoldenRun {
  std::uint32_t ret;
  ir::Module module;
  std::unique_ptr<ir::Interpreter> interp;
};

GoldenRun run_workload(const Workload& w) {
  GoldenRun g{0, {}, nullptr};
  w.build(g.module);
  g.interp = std::make_unique<ir::Interpreter>(g.module);
  g.ret = g.interp->run("main", {}).value;
  return g;
}

std::uint32_t load32(const GoldenRun& g, const std::string& global, std::uint32_t offset) {
  return g.interp->memory().load32(g.module.layout().address_of(global) + offset);
}
std::uint8_t load8(const GoldenRun& g, const std::string& global, std::uint32_t offset) {
  return g.interp->memory().load8(g.module.layout().address_of(global) + offset);
}

// ---- pinned regression digests (catch accidental input/algorithm drift) -----

struct Pin {
  const char* name;
  std::uint32_t ret;
};

// gtest prints the parameter into the test name; its default byte dump would
// include the `name` pointer, which ASLR moves on every run.
void PrintTo(const Pin& p, std::ostream* os) { *os << p.name << " ret=" << p.ret; }

class GoldenPins : public ::testing::TestWithParam<Pin> {};

TEST_P(GoldenPins, ReturnValueStable) {
  const Pin pin = GetParam();
  for (const Workload& w : all_workloads()) {
    if (w.name == pin.name) {
      EXPECT_EQ(run_workload(w).ret, pin.ret);
      return;
    }
  }
  FAIL() << "workload not found";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenPins,
                         ::testing::Values(Pin{"adpcm", 170052u}, Pin{"aes", 264u},
                                           Pin{"blowfish", 3597209202u}, Pin{"gsm", 1741429u},
                                           Pin{"jpeg", 143744u}, Pin{"mips", 1482u},
                                           Pin{"motion", 4292177626u}, Pin{"sha", 1649005670u}),
                         [](const auto& info) { return std::string(info.param.name); });

// ---- SHA-1: real host reference over the same message words -----------------

TEST(Sha, MatchesHostSha1) {
  const Workload w = make_sha();
  GoldenRun g = run_workload(w);

  // Recreate the message exactly as the workload builder does.
  constexpr int kChunks = 16;
  std::vector<std::uint32_t> words(static_cast<std::size_t>(kChunks) * 16);
  SplitMix64 rng(0x53484131);
  for (auto& x : words) x = rng.next_u32();

  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  auto rotl = [](std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); };
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::uint32_t W[80];
    for (int t = 0; t < 16; ++t) W[t] = words[static_cast<std::size_t>(chunk * 16 + t)];
    for (int t = 16; t < 80; ++t) W[t] = rotl(W[t - 3] ^ W[t - 8] ^ W[t - 14] ^ W[t - 16], 1);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      std::uint32_t f, k;
      if (t < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + W[t];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(load32(g, "digest", static_cast<std::uint32_t>(4 * i)), h[i]) << "word " << i;
  }
  EXPECT_EQ(g.ret, h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4]);
}

// ---- AES-128: FIPS-197 host reference ---------------------------------------

namespace aes_ref {

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = (a & 0x80) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

std::array<std::uint8_t, 256> sbox() {
  std::array<std::uint8_t, 256> out{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv = 0;
    if (i != 0) {
      for (int x = 1; x < 256; ++x) {
        if (gf_mul(static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(x)) == 1) {
          inv = static_cast<std::uint8_t>(x);
          break;
        }
      }
    }
    std::uint8_t y = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int v = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) & 7)) & 1) ^
                    ((inv >> ((bit + 5) & 7)) & 1) ^ ((inv >> ((bit + 6) & 7)) & 1) ^
                    ((inv >> ((bit + 7) & 7)) & 1) ^ ((0x63 >> bit) & 1);
      y = static_cast<std::uint8_t>(y | (v << bit));
    }
    out[static_cast<std::size_t>(i)] = y;
  }
  return out;
}

void encrypt_block(const std::array<std::uint8_t, 256>& sb, const std::uint8_t rk[176],
                   std::uint8_t s[16]) {
  auto add_rk = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= rk[16 * round + i];
  };
  auto sub_shift = [&] {
    std::uint8_t t[16];
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) t[r + 4 * c] = sb[s[r + 4 * ((c + r) % 4)]];
    }
    for (int i = 0; i < 16; ++i) s[i] = t[i];
  };
  auto mix = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t a0 = s[4 * c], a1 = s[4 * c + 1], a2 = s[4 * c + 2], a3 = s[4 * c + 3];
      s[4 * c] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
      s[4 * c + 1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
      s[4 * c + 2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
      s[4 * c + 3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
    }
  };
  add_rk(0);
  for (int round = 1; round <= 9; ++round) {
    sub_shift();
    mix();
    add_rk(round);
  }
  sub_shift();
  add_rk(10);
}

}  // namespace aes_ref

TEST(Aes, MatchesFips197Reference) {
  const Workload w = make_aes();
  GoldenRun g = run_workload(w);

  // Recreate key and plaintext exactly as the builder does.
  auto make_input = [](std::uint64_t seed, std::size_t n) {
    std::vector<std::uint8_t> data(n);
    SplitMix64 rng(seed);
    for (auto& x : data) x = static_cast<std::uint8_t>(rng.next() & 0xff);
    return data;
  };
  const auto key = make_input(0x4145534b, 16);
  const auto plain = make_input(0x41455350, 8 * 16);

  const auto sb = aes_ref::sbox();
  // Key expansion.
  std::uint8_t rk[176];
  for (int i = 0; i < 16; ++i) rk[i] = key[static_cast<std::size_t>(i)];
  std::uint8_t rc = 1;
  for (int word = 4; word < 44; ++word) {
    std::uint8_t t[4] = {rk[4 * (word - 1)], rk[4 * (word - 1) + 1], rk[4 * (word - 1) + 2],
                         rk[4 * (word - 1) + 3]};
    if (word % 4 == 0) {
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(sb[t[1]] ^ rc);
      t[1] = sb[t[2]];
      t[2] = sb[t[3]];
      t[3] = sb[tmp];
      rc = aes_ref::gf_mul(rc, 2);
    }
    for (int k = 0; k < 4; ++k) rk[4 * word + k] = static_cast<std::uint8_t>(t[k] ^ rk[4 * (word - 4) + k]);
  }

  for (int blk = 0; blk < 8; ++blk) {
    std::uint8_t state[16];
    for (int i = 0; i < 16; ++i) state[i] = plain[static_cast<std::size_t>(16 * blk + i)];
    aes_ref::encrypt_block(sb, rk, state);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(load8(g, "cipher", static_cast<std::uint32_t>(16 * blk + i)), state[i])
          << "block " << blk << " byte " << i;
    }
  }
}

// ---- Blowfish-structured Feistel host reference ------------------------------

TEST(Blowfish, MatchesHostFeistel) {
  const Workload w = make_blowfish();
  GoldenRun g = run_workload(w);

  auto table = [](std::uint64_t seed, std::size_t n) {
    std::vector<std::uint32_t> t(n);
    SplitMix64 rng(seed);
    for (auto& x : t) x = rng.next_u32();
    return t;
  };
  const auto parr = table(0x50415252, 18);
  const auto s0 = table(0x53423030, 256);
  const auto s1 = table(0x53423131, 256);
  const auto s2 = table(0x53423232, 256);
  const auto s3 = table(0x53423333, 256);
  const auto plain = table(0x424c4f57, 128);

  auto F = [&](std::uint32_t x) {
    return ((s0[x >> 24] + s1[(x >> 16) & 0xff]) ^ s2[(x >> 8) & 0xff]) + s3[x & 0xff];
  };
  for (int blk = 0; blk < 64; ++blk) {
    std::uint32_t xl = plain[static_cast<std::size_t>(2 * blk)];
    std::uint32_t xr = plain[static_cast<std::size_t>(2 * blk + 1)];
    for (int round = 0; round < 16; ++round) {
      xl ^= parr[static_cast<std::size_t>(round)];
      xr ^= F(xl);
      std::swap(xl, xr);
    }
    std::swap(xl, xr);
    xr ^= parr[16];
    xl ^= parr[17];
    EXPECT_EQ(load32(g, "cipher", static_cast<std::uint32_t>(8 * blk)), xl) << blk;
    EXPECT_EQ(load32(g, "cipher", static_cast<std::uint32_t>(8 * blk + 4)), xr) << blk;
  }
}

// ---- mips: the guest bubble sort must actually sort --------------------------

TEST(Mips, GuestMemorySorted) {
  const Workload w = make_mips();
  GoldenRun g = run_workload(w);
  std::uint32_t prev = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = load32(g, "guest_mem", static_cast<std::uint32_t>(4 * i));
    EXPECT_GE(v, prev) << "position " << i;
    prev = v;
  }
  // The interpreter executed a plausible number of guest instructions.
  EXPECT_GT(g.ret, 500u);
  EXPECT_LT(g.ret, 5000u);
}

TEST(Mips, GuestDataIsPermutationOfInput) {
  const Workload w = make_mips();
  GoldenRun g = run_workload(w);
  std::vector<std::uint32_t> expect(16);
  SplitMix64 rng(0x4d495053);
  for (auto& x : expect) x = rng.next_below(100000);
  std::sort(expect.begin(), expect.end());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(load32(g, "guest_mem", static_cast<std::uint32_t>(4 * i)),
              expect[static_cast<std::size_t>(i)]);
  }
}

// ---- adpcm: codec round trip quality ------------------------------------------

TEST(Adpcm, DecoderTracksInput) {
  const Workload w = make_adpcm();
  GoldenRun g = run_workload(w);
  // The decoded waveform must track the input (ADPCM is lossy; after the
  // adaptation warm-up the error stays bounded relative to full scale).
  double err = 0;
  for (int i = 128; i < 512; ++i) {
    const auto in = static_cast<std::int16_t>(
        g.interp->memory().load16(g.module.layout().address_of("pcm") +
                                  static_cast<std::uint32_t>(2 * i)));
    const auto out = static_cast<std::int16_t>(
        g.interp->memory().load16(g.module.layout().address_of("decoded") +
                                  static_cast<std::uint32_t>(2 * i)));
    err += std::abs(static_cast<double>(in) - out);
  }
  err /= 384.0;
  EXPECT_LT(err, 2500.0);  // mean absolute error bounded
}

TEST(Adpcm, EncoderEmitsNibbles) {
  const Workload w = make_adpcm();
  GoldenRun g = run_workload(w);
  for (int i = 0; i < 512; ++i) {
    EXPECT_LT(load8(g, "encoded", static_cast<std::uint32_t>(i)), 16);  // 4-bit codes
  }
}

// ---- motion: decoded vectors match the host encoder ----------------------------

TEST(Motion, VectorsMatchEncodedDeltas) {
  const Workload w = make_motion();
  GoldenRun g = run_workload(w);
  SplitMix64 rng(0x4d4f544e);
  std::int32_t px = 0, py = 0;
  auto wrap = [](std::int32_t v) {
    if (v > 1023) v -= 2048;
    if (v < -1024) v += 2048;
    return v;
  };
  for (int i = 0; i < 256; ++i) {
    const std::int32_t dx = static_cast<std::int32_t>(rng.next_below(33)) - 16;
    const std::int32_t dy = static_cast<std::int32_t>(rng.next_below(33)) - 16;
    px = wrap(px + dx);
    py = wrap(py + dy);
    EXPECT_EQ(static_cast<std::int32_t>(load32(g, "vectors", static_cast<std::uint32_t>(8 * i))),
              px)
        << "vector " << i;
    EXPECT_EQ(
        static_cast<std::int32_t>(load32(g, "vectors", static_cast<std::uint32_t>(8 * i + 4))),
        py)
        << "vector " << i;
  }
}

// ---- gsm: reflection coefficient sanity -----------------------------------------

TEST(Gsm, LarsWithinQ15Range) {
  const Workload w = make_gsm();
  GoldenRun g = run_workload(w);
  bool any_nonzero = false;
  for (int i = 0; i < 4 * 8; ++i) {
    const auto lar =
        static_cast<std::int32_t>(load32(g, "lar_out", static_cast<std::uint32_t>(4 * i)));
    EXPECT_GE(lar, -131072);
    EXPECT_LE(lar, 131072);
    any_nonzero |= lar != 0;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Gsm, AutocorrelationLagZeroDominates) {
  const Workload w = make_gsm();
  GoldenRun g = run_workload(w);
  for (int frame = 0; frame < 4; ++frame) {
    const std::uint32_t base = static_cast<std::uint32_t>(frame * 9 * 4);
    const auto r0 = static_cast<std::int32_t>(load32(g, "acf_out", base));
    EXPECT_GT(r0, 0);
    for (int k = 1; k <= 8; ++k) {
      const auto rk =
          static_cast<std::int32_t>(load32(g, "acf_out", base + static_cast<std::uint32_t>(4 * k)));
      EXPECT_LE(std::abs(rk), r0) << "frame " << frame << " lag " << k;
    }
  }
}

// ---- jpeg: DC-only blocks reconstruct flat ---------------------------------------

TEST(Jpeg, PixelsInByteRange) {
  const Workload w = make_jpeg();
  GoldenRun g = run_workload(w);
  // clamp(0,255) already guarantees byte range; check the image is not
  // degenerate (some variation across pixels).
  std::uint32_t min = 255, max = 0;
  for (int i = 0; i < 16 * 64; ++i) {
    const std::uint32_t px = load8(g, "pixels", static_cast<std::uint32_t>(i));
    min = std::min(min, px);
    max = std::max(max, px);
  }
  EXPECT_LT(min, max);
}

TEST(Suite, HasEightWorkloadsInPaperOrder) {
  const auto& ws = all_workloads();
  ASSERT_EQ(ws.size(), 8u);
  EXPECT_EQ(ws[0].name, "adpcm");
  EXPECT_EQ(ws[7].name, "sha");
  for (const Workload& w : ws) EXPECT_FALSE(w.output_globals.empty());
}

TEST(Suite, GoldenRunsAreDeterministic) {
  for (const Workload& w : all_workloads()) {
    const auto a = report::run_golden(w);
    const auto b = report::run_golden(w);
    EXPECT_EQ(a.ret, b.ret) << w.name;
    EXPECT_EQ(a.output_checksum, b.output_checksum) << w.name;
  }
}

}  // namespace
}  // namespace ttsc::workloads
