// Tests for the message tracer, including its use as a determinism witness:
// two runs with the same seed must produce identical traces.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pahoehoe::net {
namespace {

using testing::SimCluster;
using wire::MessageType;

TEST(TracerTest, DisabledByDefaultAndFree) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.record(1, TraceEvent::kSend, NodeId{1}, NodeId{2},
                MessageType::kAmrIndication, 10);
  EXPECT_TRUE(tracer.records().empty());
}

TEST(TracerTest, RecordsInOrder) {
  Tracer tracer;
  tracer.enable();
  tracer.record(1, TraceEvent::kSend, NodeId{1}, NodeId{2},
                MessageType::kAmrIndication, 10);
  tracer.record(2, TraceEvent::kDeliver, NodeId{1}, NodeId{2},
                MessageType::kAmrIndication, 10);
  ASSERT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records()[0].event, TraceEvent::kSend);
  EXPECT_EQ(tracer.records()[1].event, TraceEvent::kDeliver);
  EXPECT_EQ(tracer.records()[1].time, 2);
}

TEST(TracerTest, RingBufferKeepsMostRecent) {
  Tracer tracer;
  tracer.enable(/*capacity=*/3);
  for (int i = 0; i < 10; ++i) {
    tracer.record(i, TraceEvent::kSend, NodeId{1}, NodeId{2},
                  MessageType::kAmrIndication, 1);
  }
  ASSERT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.records()[0].time, 7);
  EXPECT_EQ(tracer.records()[2].time, 9);
  EXPECT_EQ(tracer.overflowed(), 7u);
}

TEST(TracerTest, DumpFormatsLines) {
  Tracer tracer;
  tracer.enable();
  tracer.record(1'500'000, TraceEvent::kDrop, NodeId{7}, NodeId{8},
                MessageType::kStoreFragmentReq, 25644);
  const std::string dump = tracer.dump();
  EXPECT_NE(dump.find("DROP"), std::string::npos);
  EXPECT_NE(dump.find("StoreFragmentReq"), std::string::npos);
  EXPECT_NE(dump.find("25644"), std::string::npos);
  EXPECT_NE(dump.find("1.5"), std::string::npos);
}

TEST(TracerTest, DumpHonorsLineLimit) {
  Tracer tracer;
  tracer.enable();
  for (int i = 0; i < 50; ++i) {
    tracer.record(i, TraceEvent::kSend, NodeId{1}, NodeId{2},
                  MessageType::kAmrIndication, 1);
  }
  const std::string dump = tracer.dump(/*max_lines=*/5);
  EXPECT_EQ(static_cast<size_t>(std::count(dump.begin(), dump.end(), '\n')),
            5u);
}

TEST(TraceDeterminismTest, IdenticalTraceForSameSeed) {
  auto run = [](uint64_t seed) {
    SimCluster tc(core::ConvergenceOptions::all_opts(), {}, seed);
    tc.net.tracer().enable();
    tc.blackout_fs(0, 0, 0, testing::minutes(10));
    tc.put(Key{"k"}, tc.make_value(4096));
    tc.run_to_quiescence();
    return std::vector<TraceRecord>(tc.net.tracer().records().begin(),
                                    tc.net.tracer().records().end());
  };
  const auto a = run(31);
  const auto b = run(31);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b) << "same seed must replay the exact same message trace";
  const auto c = run(32);
  EXPECT_NE(a, c);
}

TEST(TraceDeterminismTest, EveryDeliveryHasAMatchingSend) {
  SimCluster tc(core::ConvergenceOptions::naive(), {}, 3);
  tc.net.tracer().enable();
  tc.put(Key{"k"}, tc.make_value(2048));
  tc.run_to_quiescence();
  int sends = 0, delivers = 0, drops = 0;
  for (const auto& record : tc.net.tracer().records()) {
    switch (record.event) {
      case TraceEvent::kSend: ++sends; break;
      case TraceEvent::kDeliver: ++delivers; break;
      case TraceEvent::kDrop: ++drops; break;
    }
  }
  EXPECT_EQ(sends, delivers + drops);
  EXPECT_EQ(drops, 0);
}

}  // namespace
}  // namespace pahoehoe::net
