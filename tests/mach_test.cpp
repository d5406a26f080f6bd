// Machine descriptions: the 13 paper configurations and the validator.
#include <gtest/gtest.h>

#include "mach/configs.hpp"

namespace ttsc::mach {
namespace {

TEST(Configs, ThirteenMachines) {
  const auto machines = all_machines();
  ASSERT_EQ(machines.size(), 13u);
  for (const Machine& m : machines) EXPECT_NO_THROW(m.validate());
}

TEST(Configs, LookupByName) {
  EXPECT_EQ(machine_by_name("m-tta-2").name, "m-tta-2");
  EXPECT_THROW(machine_by_name("z80"), Error);
}

struct RfSpec {
  const char* machine;
  int rfs;
  int size;
  int read_ports;
  int write_ports;
};

// gtest prints the parameter into the test name; its default byte dump would
// include the `machine` pointer, which ASLR moves on every run.
void PrintTo(const RfSpec& s, std::ostream* os) {
  *os << s.machine << " rfs=" << s.rfs << " size=" << s.size << " ports=" << s.read_ports << "r"
      << s.write_ports << "w";
}

class RfGeometry : public ::testing::TestWithParam<RfSpec> {};

/// Register file geometry exactly as Section IV specifies.
TEST_P(RfGeometry, MatchesPaper) {
  const RfSpec s = GetParam();
  const Machine m = machine_by_name(s.machine);
  ASSERT_EQ(static_cast<int>(m.rfs.size()), s.rfs);
  for (const RegisterFile& rf : m.rfs) {
    EXPECT_EQ(rf.size, s.size);
    EXPECT_EQ(rf.read_ports, s.read_ports);
    EXPECT_EQ(rf.write_ports, s.write_ports);
    EXPECT_EQ(rf.width, 32);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SectionIV, RfGeometry,
    ::testing::Values(RfSpec{"m-tta-1", 1, 32, 1, 1}, RfSpec{"m-vliw-2", 1, 64, 4, 2},
                      RfSpec{"p-vliw-2", 2, 32, 2, 1}, RfSpec{"m-tta-2", 1, 64, 1, 1},
                      RfSpec{"p-tta-2", 2, 32, 1, 1}, RfSpec{"bm-tta-2", 2, 32, 1, 1},
                      RfSpec{"m-vliw-3", 1, 96, 6, 3}, RfSpec{"p-vliw-3", 3, 32, 2, 1},
                      RfSpec{"m-tta-3", 1, 96, 2, 1}, RfSpec{"p-tta-3", 3, 32, 1, 1},
                      RfSpec{"bm-tta-3", 3, 32, 1, 1}),
    [](const auto& info) {
      std::string n = info.param.machine;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Configs, TableIOperationLatencies) {
  const Machine m = make_m_tta_2();
  const int alu = m.fu_for(ir::Opcode::Add);
  ASSERT_GE(alu, 0);
  const FunctionUnit& fu = m.fus[static_cast<std::size_t>(alu)];
  EXPECT_EQ(fu.latency(ir::Opcode::Add), 1);
  EXPECT_EQ(fu.latency(ir::Opcode::Mul), 3);
  EXPECT_EQ(fu.latency(ir::Opcode::Shl), 2);
  EXPECT_EQ(fu.latency(ir::Opcode::Shr), 2);
  EXPECT_EQ(fu.latency(ir::Opcode::Sxhw), 1);
  const int lsu = m.fu_for(ir::Opcode::Ldw);
  ASSERT_GE(lsu, 0);
  EXPECT_EQ(m.fus[static_cast<std::size_t>(lsu)].latency(ir::Opcode::Ldw), 3);
  EXPECT_EQ(m.fus[static_cast<std::size_t>(lsu)].latency(ir::Opcode::Stw), 0);
}

TEST(Configs, BusCountsPerDesignPoint) {
  EXPECT_EQ(machine_by_name("m-tta-1").buses.size(), 3u);
  EXPECT_EQ(machine_by_name("m-tta-2").buses.size(), 5u);
  EXPECT_EQ(machine_by_name("bm-tta-2").buses.size(), 4u);  // merged
  EXPECT_EQ(machine_by_name("m-tta-3").buses.size(), 8u);
  EXPECT_EQ(machine_by_name("bm-tta-3").buses.size(), 6u);  // merged
}

TEST(Configs, IssueWidthGrouping) {
  EXPECT_EQ(issue_width(machine_by_name("mblaze-3")), 1);
  EXPECT_EQ(issue_width(machine_by_name("m-tta-1")), 1);
  EXPECT_EQ(issue_width(machine_by_name("p-tta-2")), 2);
  EXPECT_EQ(issue_width(machine_by_name("m-vliw-3")), 3);
}

TEST(Configs, ThreeIssueHasTwoAlus) {
  const Machine m = machine_by_name("m-tta-3");
  int alus = 0;
  for (const FunctionUnit& fu : m.fus) {
    if (!fu.is_control_unit() && fu.supports(ir::Opcode::Add)) ++alus;
  }
  EXPECT_EQ(alus, 2);
}

TEST(Configs, VliwSlotsCoverAllFus) {
  const Machine m = machine_by_name("m-vliw-3");
  EXPECT_EQ(m.vliw_slots.size(), 3u);
  std::vector<bool> covered(m.fus.size(), false);
  for (const auto& slot : m.vliw_slots) {
    for (int f : slot) covered[static_cast<std::size_t>(f)] = true;
  }
  for (bool c : covered) EXPECT_TRUE(c);
}

TEST(Configs, ScalarTimingDiffersBetweenPipelines) {
  const Machine m3 = make_mblaze3();
  const Machine m5 = make_mblaze5();
  EXPECT_EQ(m3.scalar.pipeline_stages, 3);
  EXPECT_EQ(m5.scalar.pipeline_stages, 5);
  EXPECT_GT(m3.scalar.load_use_stall, m5.scalar.load_use_stall);
  EXPECT_FALSE(m3.scalar.barrel_shifter);  // minimum MicroBlaze config
}

// ---- validator error cases -------------------------------------------------------

Machine minimal_tta() { return make_m_tta_1(); }

TEST(Validate, RejectsMissingControlUnit) {
  Machine m = minimal_tta();
  std::erase_if(m.fus, [](const FunctionUnit& fu) { return fu.is_control_unit(); });
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsStoreWithLatency) {
  Machine m = minimal_tta();
  for (FunctionUnit& fu : m.fus) {
    for (Operation& op : fu.ops) {
      if (op.opcode == ir::Opcode::Stw) op.latency = 1;
    }
  }
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsZeroPortRf) {
  Machine m = minimal_tta();
  m.rfs[0].read_ports = 0;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsUnconnectedTrigger) {
  Machine m = minimal_tta();
  for (Bus& bus : m.buses) {
    std::erase_if(bus.dests,
                  [](const PortRef& p) { return p.kind == PortRef::Kind::FuTrigger && p.unit == 0; });
  }
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsVliwWithoutSlots) {
  Machine m = machine_by_name("m-vliw-2");
  m.vliw_slots.clear();
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsSourceEndpointInDests) {
  Machine m = minimal_tta();
  m.buses[0].dests.push_back({PortRef::Kind::RfRead, 0});
  EXPECT_THROW(m.validate(), Error);
}

TEST(Validate, RejectsOutOfRangeUnit) {
  Machine m = minimal_tta();
  m.buses[0].sources.push_back({PortRef::Kind::FuResult, 99});
  EXPECT_THROW(m.validate(), Error);
}

TEST(Machine, DatapathFusExcludeCu) {
  const Machine m = machine_by_name("m-tta-2");
  const auto dp = m.datapath_fus();
  EXPECT_EQ(dp.size(), 2u);
  for (int f : dp) EXPECT_FALSE(m.fus[static_cast<std::size_t>(f)].is_control_unit());
}

TEST(Machine, TotalRegisters) {
  EXPECT_EQ(machine_by_name("m-vliw-2").total_registers(), 64);
  EXPECT_EQ(machine_by_name("p-vliw-3").total_registers(), 96);
}

}  // namespace
}  // namespace ttsc::mach
