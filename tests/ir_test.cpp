// IR core: builder, verifier, memory, interpreter semantics, analyses.
#include <gtest/gtest.h>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/memory.hpp"
#include "ir/print.hpp"
#include "ir/verify.hpp"

namespace ttsc::ir {
namespace {

// ---- memory -----------------------------------------------------------------

TEST(Memory, LittleEndianRoundTrip) {
  Memory mem(64);
  mem.store32(0, 0x12345678);
  EXPECT_EQ(mem.load8(0), 0x78);
  EXPECT_EQ(mem.load8(1), 0x56);
  EXPECT_EQ(mem.load8(2), 0x34);
  EXPECT_EQ(mem.load8(3), 0x12);
  EXPECT_EQ(mem.load16(0), 0x5678);
  EXPECT_EQ(mem.load16(2), 0x1234);
  EXPECT_EQ(mem.load32(0), 0x12345678u);
}

TEST(Memory, PartialStores) {
  Memory mem(16);
  mem.store32(4, 0xaabbccdd);
  mem.store8(5, 0x11);
  EXPECT_EQ(mem.load32(4), 0xaabb11ddu);
  mem.store16(6, 0x2233);
  EXPECT_EQ(mem.load32(4), 0x223311ddu);
}

TEST(Memory, ChecksumIsContentSensitive) {
  Memory a(32);
  Memory b(32);
  EXPECT_EQ(a.checksum(0, 32), b.checksum(0, 32));
  b.store8(17, 1);
  EXPECT_NE(a.checksum(0, 32), b.checksum(0, 32));
}

TEST(Memory, WriteBlockAndView) {
  Memory mem(16);
  const std::uint8_t data[] = {1, 2, 3};
  mem.write_block(4, data);
  auto view = mem.view(4, 3);
  EXPECT_EQ(view[0], 1);
  EXPECT_EQ(view[2], 3);
}

// ---- module / layout ----------------------------------------------------------

TEST(Module, LayoutAssignsAlignedAddresses) {
  Module m;
  m.add_global(Global{.name = "a", .size = 3, .align = 4});
  m.add_global(Global{.name = "b", .size = 8, .align = 8});
  const DataLayout dl = m.layout();
  EXPECT_EQ(dl.address_of("a"), DataLayout::kDataBase);
  EXPECT_EQ(dl.address_of("b") % 8, 0u);
  EXPECT_GT(dl.address_of("b"), dl.address_of("a"));
  EXPECT_EQ(dl.end(), dl.address_of("b") + 8);
}

TEST(Module, DuplicateGlobalRejected) {
  Module m;
  m.add_global(Global{.name = "x", .size = 4});
  EXPECT_DEATH(m.add_global(Global{.name = "x", .size = 4}), "duplicate global");
}

TEST(Module, FunctionReferencesStayStableAcrossAdds) {
  Module m;
  Function& f = m.add_function("first", 0);
  for (int i = 0; i < 100; ++i) m.add_function("f" + std::to_string(i), 0);
  EXPECT_EQ(f.name(), "first");  // would crash/garbage with vector storage
}

// ---- verifier -----------------------------------------------------------------

Module simple_module(const std::function<void(IRBuilder&)>& body) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  body(b);
  return m;
}

TEST(Verify, AcceptsWellFormed) {
  Module m = simple_module([](IRBuilder& b) { b.ret(b.add(1, 2)); });
  EXPECT_NO_THROW(verify(m));
}

TEST(Verify, RejectsMissingTerminator) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  b.add(1, 2);  // no terminator
  EXPECT_THROW(verify(f), Error);
}

TEST(Verify, RejectsBranchTargetOutOfRange) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  Instr jmp;
  jmp.op = Opcode::Jump;
  jmp.targets = {42};
  f.block(0).instrs.push_back(jmp);
  EXPECT_THROW(verify(f), Error);
}

TEST(Verify, RejectsUnknownCallee) {
  Module m = simple_module([](IRBuilder& b) {
    b.call("nonexistent", {});
    b.ret();
  });
  EXPECT_THROW(verify(m), Error);
}

TEST(Verify, RejectsCallArityMismatch) {
  Module m;
  Function& g = m.add_function("g", 2);
  {
    IRBuilder b(g);
    b.set_insert_point(b.create_block("entry"));
    b.ret(g.param(0));
  }
  Function& f = m.add_function("main", 0);
  {
    IRBuilder b(f);
    b.set_insert_point(b.create_block("entry"));
    b.call("g", {Operand(1)});  // needs 2 args
    b.ret();
  }
  EXPECT_THROW(verify(m), Error);
}

TEST(Verify, RejectsUnknownGlobalReference) {
  Module m = simple_module([](IRBuilder& b) { b.ret(b.ga("missing")); });
  EXPECT_THROW(verify(m), Error);
}

TEST(Verify, RejectsWrongOperandCount) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  Instr bad(Opcode::Add, f.new_vreg(), {Operand(1)});  // add needs 2 inputs
  f.block(0).instrs.push_back(bad);
  Instr ret;
  ret.op = Opcode::Ret;
  f.block(0).instrs.push_back(ret);
  EXPECT_THROW(verify(f), Error);
}

// ---- interpreter semantics (one case per opcode class) -------------------------

// gtest prints this parameter's bytes into each test's name, so the struct
// has no padding bytes (they would be uninitialized): `op` is stored widened
// to 32 bits.
struct BinOpCase {
  BinOpCase(Opcode op, std::uint32_t a, std::uint32_t b, std::uint32_t expected)
      : op(static_cast<std::uint32_t>(op)), a(a), b(b), expected(expected) {}
  std::uint32_t op;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t expected;
};

class InterpBinOp : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(InterpBinOp, Evaluates) {
  const BinOpCase c = GetParam();
  Module m = simple_module([&](IRBuilder& b) {
    Vreg x = b.movi(static_cast<std::int32_t>(c.a));
    Vreg y = b.movi(static_cast<std::int32_t>(c.b));
    b.ret(b.emit(static_cast<Opcode>(c.op), {x, y}));
  });
  Interpreter interp(m);
  EXPECT_EQ(interp.run("main", {}).value, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, InterpBinOp,
    ::testing::Values(
        BinOpCase{Opcode::Add, 2, 3, 5}, BinOpCase{Opcode::Add, 0xffffffff, 1, 0},
        BinOpCase{Opcode::Sub, 3, 5, 0xfffffffe}, BinOpCase{Opcode::Mul, 7, 6, 42},
        BinOpCase{Opcode::Mul, 0x10000, 0x10000, 0},  // low 32 bits
        BinOpCase{Opcode::And, 0xff00ff00, 0x0ff00ff0, 0x0f000f00},
        BinOpCase{Opcode::Ior, 0xf0, 0x0f, 0xff}, BinOpCase{Opcode::Xor, 0xff, 0x0f, 0xf0},
        BinOpCase{Opcode::Shl, 1, 31, 0x80000000},
        BinOpCase{Opcode::Shl, 1, 32, 1},  // shift masked to 5 bits
        BinOpCase{Opcode::Shru, 0x80000000, 31, 1},
        BinOpCase{Opcode::Shr, 0x80000000, 31, 0xffffffff},
        BinOpCase{Opcode::Shr, 0x40000000, 30, 1}, BinOpCase{Opcode::Eq, 5, 5, 1},
        BinOpCase{Opcode::Eq, 5, 6, 0}, BinOpCase{Opcode::Gt, 1, 0xffffffff, 1},  // signed
        BinOpCase{Opcode::Gt, 0xffffffff, 1, 0},
        BinOpCase{Opcode::Gtu, 0xffffffff, 1, 1},  // unsigned
        BinOpCase{Opcode::Gtu, 1, 0xffffffff, 0}));

TEST(Interp, SignExtendOps) {
  Module m = simple_module([](IRBuilder& b) {
    Vreg h = b.sxhw(b.movi(0x8000));
    Vreg q = b.sxqw(b.movi(0x80));
    b.ret(b.band(h, q));
  });
  Interpreter interp(m);
  EXPECT_EQ(interp.run("main", {}).value, 0xffff8000u & 0xffffff80u);
}

TEST(Interp, LoadStoreAllWidths) {
  Module m;
  m.add_global(Global{.name = "buf", .size = 16, .align = 4});
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  b.stw(b.ga("buf"), b.movi(static_cast<std::int32_t>(0x80ff7001)));
  Vreg w = b.ldw(b.ga("buf"));
  Vreg hs = b.ldh(b.ga("buf", 2));   // 0x80ff -> sign extended
  Vreg hu = b.ldhu(b.ga("buf", 2));  // 0x80ff zero extended
  Vreg qs = b.ldq(b.ga("buf", 3));   // 0x80 -> sign extended
  Vreg qu = b.ldqu(b.ga("buf", 3));
  Vreg sum = b.add(w, b.add(hs, b.add(hu, b.add(qs, qu))));
  b.ret(sum);
  Interpreter interp(m);
  const std::uint32_t expected = 0x80ff7001u + 0xffff80ffu + 0x80ffu + 0xffffff80u + 0x80u;
  EXPECT_EQ(interp.run("main", {}).value, expected);
}

TEST(Interp, GlobalInitializersLoaded) {
  Module m;
  m.add_global(Global{.name = "data", .size = 4, .align = 4, .init = {0x78, 0x56, 0x34, 0x12}});
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  b.ret(b.ldw(b.ga("data")));
  Interpreter interp(m);
  EXPECT_EQ(interp.run("main", {}).value, 0x12345678u);
}

TEST(Interp, CallsAndArguments) {
  Module m;
  Function& g = m.add_function("g", 2);
  {
    IRBuilder b(g);
    b.set_insert_point(b.create_block("entry"));
    b.ret(b.sub(g.param(0), g.param(1)));
  }
  Function& f = m.add_function("main", 0);
  {
    IRBuilder b(f);
    b.set_insert_point(b.create_block("entry"));
    b.ret(b.call("g", {Operand(10), Operand(4)}));
  }
  Interpreter interp(m);
  EXPECT_EQ(interp.run("main", {}).value, 6u);
}

TEST(Interp, FuelLimitCatchesInfiniteLoop) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  const auto entry = b.create_block("entry");
  b.set_insert_point(entry);
  b.jump(entry);
  Interpreter interp(m);
  interp.set_fuel(1000);
  EXPECT_THROW(interp.run("main", {}), Error);
}

TEST(Interp, BranchDirections) {
  Module m;
  Function& f = m.add_function("main", 1);
  IRBuilder b(f);
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  b.bnz(f.param(0), yes, no);
  b.set_insert_point(yes);
  b.ret(b.movi(100));
  b.set_insert_point(no);
  b.ret(b.movi(200));
  Interpreter interp(m);
  EXPECT_EQ(interp.run("main", {1}).value, 100u);
  EXPECT_EQ(interp.run("main", {0}).value, 200u);
  EXPECT_EQ(interp.run("main", {0xffffffff}).value, 100u);  // any nonzero taken
}

// ---- analyses -----------------------------------------------------------------

TEST(Analysis, CfgAndRpo) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  const auto entry = b.create_block("entry");
  const auto loop = b.create_block("loop");
  const auto exit = b.create_block("exit");
  b.set_insert_point(entry);
  Vreg i = b.movi(0);
  b.jump(loop);
  b.set_insert_point(loop);
  b.emit_into(i, Opcode::Add, {i, 1});
  b.bnz(b.eq(i, 10), exit, loop);
  b.set_insert_point(exit);
  b.ret(i);

  const Cfg cfg(f);
  EXPECT_EQ(cfg.succs(entry).size(), 1u);
  EXPECT_EQ(cfg.succs(loop).size(), 2u);
  EXPECT_EQ(cfg.preds(loop).size(), 2u);
  EXPECT_TRUE(cfg.reachable(exit));
  EXPECT_EQ(cfg.rpo().front(), entry);

  const Dominators dom(f, cfg);
  EXPECT_TRUE(dom.dominates(entry, loop));
  EXPECT_TRUE(dom.dominates(loop, exit));
  EXPECT_FALSE(dom.dominates(exit, loop));

  const auto loops = find_loops(f, cfg, dom);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, loop);
  EXPECT_TRUE(loops[0].contains(loop));
  EXPECT_FALSE(loops[0].contains(entry));
}

TEST(Analysis, UnreachableBlockDetected) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  const auto entry = b.create_block("entry");
  const auto dead = b.create_block("dead");
  b.set_insert_point(entry);
  b.ret();
  b.set_insert_point(dead);
  b.ret();
  const Cfg cfg(f);
  EXPECT_TRUE(cfg.reachable(entry));
  EXPECT_FALSE(cfg.reachable(dead));
}

TEST(Analysis, LivenessAcrossLoop) {
  Module m;
  Function& f = m.add_function("main", 0);
  IRBuilder b(f);
  const auto entry = b.create_block("entry");
  const auto loop = b.create_block("loop");
  const auto exit = b.create_block("exit");
  b.set_insert_point(entry);
  Vreg acc = b.movi(0);
  Vreg i = b.movi(0);
  Vreg dead_val = b.movi(77);  // never used again
  (void)dead_val;
  b.jump(loop);
  b.set_insert_point(loop);
  b.emit_into(acc, Opcode::Add, {acc, i});
  b.emit_into(i, Opcode::Add, {i, 1});
  b.bnz(b.eq(i, 10), exit, loop);
  b.set_insert_point(exit);
  b.ret(acc);

  const Cfg cfg(f);
  const Liveness live(f, cfg);
  EXPECT_TRUE(live.live_out(entry, acc));
  EXPECT_TRUE(live.live_out(loop, acc));   // live around the back edge
  EXPECT_TRUE(live.live_out(loop, i));
  EXPECT_FALSE(live.live_out(loop, dead_val));
  EXPECT_FALSE(live.live_out(exit, acc));
}

TEST(Analysis, UsesAndDefs) {
  Instr in(Opcode::Add, Vreg(5), {Operand(Vreg(1)), Operand(7)});
  const auto uses = uses_of(in);
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0], Vreg(1));
  EXPECT_EQ(def_of(in), Vreg(5));
}

// ---- printer (smoke) ------------------------------------------------------------

TEST(Print, RendersInstructions) {
  Module m = simple_module([](IRBuilder& b) {
    Vreg x = b.add(b.ga("g", 4), 2);
    b.ret(x);
  });
  m.add_global(Global{.name = "g", .size = 16});
  const std::string text = to_string(m);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("@g+4"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

}  // namespace
}  // namespace ttsc::ir
