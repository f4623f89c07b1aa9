#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace pahoehoe::net {
namespace {

using wire::Envelope;
using wire::MessageType;

ObjectVersionId version(int64_t n) {
  return ObjectVersionId{Key{"k"}, Timestamp{n, 1}};
}

/// The message most tests send: small, and told apart by `n`.
wire::AmrIndication amr(int64_t n = 0) {
  return wire::AmrIndication{version(n)};
}

/// A fragment store carrying `size` bytes of fragment.
wire::StoreFragmentReq store(size_t size) {
  wire::StoreFragmentReq req;
  req.ov = version(7);
  req.meta = Metadata{Policy{}, 4 * size};
  req.frag_index = 3;
  req.fragment = Fragment::sealed(Bytes(size, 0x5a));
  req.digest = req.fragment.digest();
  return req;
}

/// The version a delivered message names.
ObjectVersionId version_of(const Envelope& env) {
  return std::visit(
      [](const auto& m) {
        if constexpr (requires { m.ov; }) {
          return m.ov;
        } else {
          return ObjectVersionId{};
        }
      },
      env.msg);
}

class Recorder : public MessageHandler {
 public:
  void handle(Envelope&& env) override {
    received.push_back(std::move(env));
    times.push_back(sim != nullptr ? sim->now() : 0);
    if (reply) reply(received.back());
  }
  std::vector<Envelope> received;
  std::vector<SimTime> times;
  const sim::Simulator* sim = nullptr;
  /// Runs on each delivery, after it is recorded.
  std::function<void(const Envelope&)> reply;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(sim_) {
    net_.register_node(a_, &ra_);
    net_.register_node(b_, &rb_);
  }

  void send_ab(int count = 1) {
    for (int i = 0; i < count; ++i) net_.send(a_, b_, amr(i));
  }

  sim::Simulator sim_;
  Network net_;
  NodeId a_{1}, b_{2};
  Recorder ra_, rb_;
};

TEST_F(NetworkTest, DeliversWithinLatencyBounds) {
  rb_.sim = &sim_;
  for (int i = 0; i < 100; ++i) net_.send(a_, b_, amr(i));
  sim_.run();
  ASSERT_EQ(rb_.received.size(), 100u);
  for (SimTime t : rb_.times) {
    EXPECT_GE(t, 10 * kMicrosPerMilli);
    EXPECT_LE(t, 30 * kMicrosPerMilli);
  }
}

TEST_F(NetworkTest, EnvelopeCarriesRoutingAndMessage) {
  const wire::StoreFragmentReq req = store(1000);
  net_.send(a_, b_, req);
  sim_.run();
  ASSERT_EQ(rb_.received.size(), 1u);
  const Envelope& env = rb_.received[0];
  EXPECT_EQ(env.from, a_);
  EXPECT_EQ(env.to, b_);
  EXPECT_EQ(env.type, MessageType::kStoreFragmentReq);
  EXPECT_EQ(env.wire_size(), Envelope::kHeaderBytes + req.encode().size());
  const auto& got = std::get<wire::StoreFragmentReq>(env.msg);
  EXPECT_EQ(got, req);
  // The fragment arrives as the sender's buffer, not a copy of it.
  EXPECT_EQ(got.fragment.bytes().data(), req.fragment.bytes().data());
}

TEST_F(NetworkTest, SerializedPayloadIsSentAsItsValue) {
  const wire::StoreFragmentReq req = store(64);
  net_.send(a_, b_, MessageType::kStoreFragmentReq, req.encode());
  sim_.run();
  ASSERT_EQ(rb_.received.size(), 1u);
  EXPECT_EQ(std::get<wire::StoreFragmentReq>(rb_.received[0].msg), req);
  EXPECT_EQ(net_.stats().total_sent_bytes(),
            Envelope::kHeaderBytes + req.encode().size());
  // A payload that does not parse as its type is never sent.
  EXPECT_THROW(net_.send(a_, b_, MessageType::kAmrIndication, Bytes(10, 0)),
               wire::WireError);
  EXPECT_EQ(net_.stats().total_sent_count(), 1u);
}

TEST_F(NetworkTest, StatsCountSentAndBytes) {
  send_ab(5);
  sim_.run();
  const auto& s = net_.stats().of(MessageType::kAmrIndication);
  EXPECT_EQ(s.sent_count, 5u);
  EXPECT_EQ(s.sent_bytes,
            5 * (Envelope::kHeaderBytes + wire::payload_size(amr())));
  EXPECT_EQ(s.delivered_count, 5u);
  EXPECT_EQ(s.dropped_count, 0u);
  EXPECT_EQ(net_.stats().total_sent_count(), 5u);
}

TEST_F(NetworkTest, BlackoutDropsBothDirectionsDuringWindow) {
  net_.add_fault(std::make_shared<NodeBlackout>(b_, 0, 1000));
  send_ab();
  net_.send(b_, a_, amr());
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_TRUE(ra_.received.empty());
  EXPECT_EQ(net_.stats().of(MessageType::kAmrIndication).dropped_count, 2u);
  // Dropped messages still count as sent (the paper's cost metric).
  EXPECT_EQ(net_.stats().of(MessageType::kAmrIndication).sent_count, 2u);
}

TEST_F(NetworkTest, BlackoutEndsAtWindowEnd) {
  net_.add_fault(std::make_shared<NodeBlackout>(b_, 0, 1000));
  sim_.schedule_at(1000, [&] { send_ab(); });
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 1u);
}

TEST_F(NetworkTest, BlackoutDoesNotAffectOtherPairs) {
  Recorder rc;
  NodeId c{3};
  net_.register_node(c, &rc);
  net_.add_fault(std::make_shared<NodeBlackout>(b_, 0, 1000));
  net_.send(a_, c, amr());
  sim_.run();
  EXPECT_EQ(rc.received.size(), 1u);
}

TEST_F(NetworkTest, PartitionDropsCrossGroupOnly) {
  Recorder rc;
  NodeId c{3};
  net_.register_node(c, &rc);
  net_.add_fault(std::make_shared<Partition>(
      std::unordered_set<NodeId>{a_, c}, 0, 1000));
  net_.send(a_, c, amr());  // same side: ok
  send_ab();                // cross: dropped
  net_.send(b_, a_, amr());  // cross: dropped
  sim_.run();
  EXPECT_EQ(rc.received.size(), 1u);
  EXPECT_TRUE(rb_.received.empty());
  EXPECT_TRUE(ra_.received.empty());
}

TEST_F(NetworkTest, UniformLossDropsApproximateRate) {
  net_.add_fault(std::make_shared<UniformLoss>(0.2));
  const int total = 5000;
  send_ab(total);
  sim_.run();
  const auto& s = net_.stats().of(MessageType::kAmrIndication);
  EXPECT_EQ(s.sent_count, static_cast<uint64_t>(total));
  const double drop_rate =
      static_cast<double>(s.dropped_count) / static_cast<double>(total);
  EXPECT_NEAR(drop_rate, 0.2, 0.03);
  EXPECT_EQ(s.delivered_count + s.dropped_count,
            static_cast<uint64_t>(total));
}

TEST_F(NetworkTest, ZeroLossDropsNothing) {
  net_.add_fault(std::make_shared<UniformLoss>(0.0));
  send_ab(100);
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 100u);
}

TEST_F(NetworkTest, FaultRulesCompose) {
  net_.add_fault(std::make_shared<UniformLoss>(0.0));
  net_.add_fault(std::make_shared<NodeBlackout>(b_, 0, 100));
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());  // any rule voting drop wins
}

TEST_F(NetworkTest, ClearFaultsRestoresDelivery) {
  net_.add_fault(std::make_shared<NodeBlackout>(
      b_, 0, std::numeric_limits<SimTime>::max()));
  send_ab();
  sim_.run();
  EXPECT_TRUE(rb_.received.empty());
  net_.clear_faults();
  send_ab();
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 1u);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  sim::Simulator sim(2);
  NetworkConfig config;
  config.duplication_rate = 1.0;
  Network net(sim, config);
  Recorder recv;
  net.register_node(a_, &recv);
  net.register_node(b_, &recv);
  const wire::StoreFragmentReq req = store(300);
  net.send(a_, b_, req);
  sim.run();
  ASSERT_EQ(recv.received.size(), 2u);
  // Both copies carry the whole message, fragment included, not a
  // moved-from husk.
  for (const Envelope& env : recv.received) {
    EXPECT_EQ(env.from, a_);
    EXPECT_EQ(env.to, b_);
    EXPECT_EQ(env.type, MessageType::kStoreFragmentReq);
    const auto& got = std::get<wire::StoreFragmentReq>(env.msg);
    EXPECT_EQ(got, req);
    EXPECT_EQ(got.fragment.bytes(), Bytes(300, 0x5a));
  }
  // Duplication is a channel property; it is counted once as sent.
  EXPECT_EQ(net.stats().of(MessageType::kStoreFragmentReq).sent_count, 1u);
}

// --- in-flight slots: every send below is duplicated ------------------------

class DuplicatingNetworkTest : public ::testing::Test {
 protected:
  static NetworkConfig duplicating() {
    NetworkConfig config;
    config.duplication_rate = 1.0;
    return config;
  }

  DuplicatingNetworkTest() : sim_(3), net_(sim_, duplicating()) {
    net_.register_node(a_, &ra_);
    net_.register_node(b_, &rb_);
  }

  sim::Simulator sim_;
  Network net_;
  NodeId a_{1}, b_{2};
  Recorder ra_, rb_;
};

// Sends made while the second copy is still queued — from the first copy's
// handler, and right after it returns — must not take (and overwrite) the
// slot the second copy reads.
TEST_F(DuplicatingNetworkTest, HandlerSendDoesNotReuseALiveSlot) {
  Recorder rc;
  const NodeId c{3};
  net_.register_node(c, &rc);
  int64_t replies = 0;
  const auto reply = [&] {
    net_.send(c, a_, wire::FsConvergeRep{version(replies++), true, {1}});
  };
  rc.reply = [&](const Envelope&) {
    reply();
    sim_.schedule_after(0, reply);
  };
  const wire::FsConvergeReq req{version(100), Metadata{Policy{}, 64}, true};
  net_.send(a_, c, req);
  sim_.run();
  ASSERT_EQ(rc.received.size(), 2u);
  for (const Envelope& env : rc.received) {
    EXPECT_EQ(env.from, a_);
    EXPECT_EQ(env.type, MessageType::kFsConvergeReq);
    EXPECT_EQ(std::get<wire::FsConvergeReq>(env.msg), req);
  }
  // Each reply is itself duplicated, and each keeps its own message.
  std::vector<int64_t> replied;
  for (const Envelope& env : ra_.received) {
    replied.push_back(version_of(env).ts.wall_micros);
  }
  std::sort(replied.begin(), replied.end());
  std::vector<int64_t> want;
  for (int64_t i = 0; i < 4; ++i) want.insert(want.end(), 2, i);
  EXPECT_EQ(replied, want);
}

TEST_F(DuplicatingNetworkTest, DrainedNetworkHoldsNoSlot) {
  for (int i = 0; i < 50; ++i) net_.send(a_, b_, amr(i));
  EXPECT_EQ(net_.in_flight(), 50u);
  sim_.run();
  EXPECT_EQ(rb_.received.size(), 100u);
  EXPECT_EQ(net_.in_flight(), 0u);
}

TEST_F(DuplicatingNetworkTest, DroppedMessageTakesNoSlot) {
  net_.add_fault(std::make_shared<TypedDrop>(MessageType::kAmrIndication));
  net_.send(a_, b_, amr());
  EXPECT_EQ(net_.in_flight(), 0u);
  net_.send(a_, b_, wire::FsConvergeReq{});
  EXPECT_EQ(net_.in_flight(), 1u);
  sim_.run();
  EXPECT_EQ(net_.in_flight(), 0u);
  ASSERT_EQ(rb_.received.size(), 2u);
  EXPECT_EQ(rb_.received[0].type, MessageType::kFsConvergeReq);
}

// Duplicated and single sends interleave, handlers send more on delivery,
// and slots are freed and reused throughout: every delivery still carries
// exactly what was sent, as many times as it was scheduled.
TEST_F(DuplicatingNetworkTest, InterleavedSendsDeliverWhatWasSent) {
  struct Sent {
    NodeId from, to;
    MessageType type;
    int copies;
  };
  // Each message names a fresh version, its identity below.
  std::map<ObjectVersionId, Sent> sent;
  int64_t next = 0;
  const auto send = [&](NodeId from, NodeId to, MessageType type) {
    const bool duplicate = next % 3 != 0;
    duplicate ? net_.reset_duplication_rate() : net_.set_duplication_rate(0.0);
    const ObjectVersionId ov = version(next++);
    sent[ov] = Sent{from, to, type, duplicate ? 2 : 1};
    switch (type) {
      case MessageType::kKlsConvergeReq:
        net_.send(from, to, wire::KlsConvergeReq{ov, Metadata{Policy{}, 9}});
        break;
      case MessageType::kKlsConvergeRep:
        net_.send(from, to, wire::KlsConvergeRep{ov, true});
        break;
      default:
        net_.send(from, to, wire::RetrieveFragReq{ov, 5});
    }
  };
  Recorder ra, rb;
  const NodeId x{10}, y{11};
  net_.register_node(x, &ra);
  net_.register_node(y, &rb);
  ra.reply = [&](const Envelope&) {
    if (next < 400) send(x, y, MessageType::kKlsConvergeReq);
  };
  rb.reply = [&](const Envelope&) {
    if (next < 400) send(y, x, MessageType::kKlsConvergeRep);
  };
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) send(x, y, MessageType::kRetrieveFragReq);
    sim_.run();
    EXPECT_EQ(net_.in_flight(), 0u);
  }
  std::map<ObjectVersionId, int> delivered;
  for (const Recorder* r : {&ra, &rb}) {
    for (const Envelope& env : r->received) {
      const auto it = sent.find(version_of(env));
      ASSERT_NE(it, sent.end());
      EXPECT_EQ(env.from, it->second.from);
      EXPECT_EQ(env.to, it->second.to);
      EXPECT_EQ(env.type, it->second.type);
      EXPECT_EQ(wire::type_of(env.msg), it->second.type);
      ++delivered[it->first];
    }
  }
  ASSERT_EQ(delivered.size(), sent.size());
  for (const auto& [ov, s] : sent) EXPECT_EQ(delivered[ov], s.copies);
}

TEST_F(NetworkTest, WanBytesTrackedWithResolver) {
  net_.set_dc_resolver([this](NodeId id) {
    return id == a_ ? DataCenterId{0} : DataCenterId{1};
  });
  send_ab(3);               // cross-DC
  net_.send(b_, b_, amr());  // same DC
  sim_.run();
  EXPECT_EQ(net_.stats().wan_sent_count(), 3u);
  EXPECT_EQ(net_.stats().wan_sent_bytes(),
            3 * (Envelope::kHeaderBytes + wire::payload_size(amr())));
}

TEST_F(NetworkTest, SendToUnregisteredNodeAborts) {
  EXPECT_DEATH(net_.send(a_, NodeId{99}, amr()), "unregistered");
}

TEST_F(NetworkTest, DoubleRegistrationAborts) {
  EXPECT_DEATH(net_.register_node(a_, &ra_), "twice");
}

TEST_F(NetworkTest, StatsResetClearsEverything) {
  net_.set_dc_resolver([this](NodeId id) {
    return id == a_ ? DataCenterId{0} : DataCenterId{1};
  });
  send_ab(4);
  sim_.run();
  net_.stats().reset();
  EXPECT_EQ(net_.stats().total_sent_count(), 0u);
  EXPECT_EQ(net_.stats().total_sent_bytes(), 0u);
  EXPECT_EQ(net_.stats().wan_sent_bytes(), 0u);
}

TEST_F(NetworkTest, SentEqualsDeliveredPlusDroppedUnderLoss) {
  // Accounting invariant: every sent message is eventually classified as
  // delivered or dropped, per type.
  net_.add_fault(std::make_shared<UniformLoss>(0.35));
  send_ab(2000);
  net_.send(b_, a_, wire::FsConvergeReq{});
  sim_.run();
  for (int t = 0; t < wire::kMessageTypeCount; ++t) {
    const auto& s = net_.stats().of(static_cast<wire::MessageType>(t));
    EXPECT_EQ(s.sent_count, s.delivered_count + s.dropped_count)
        << wire::to_string(static_cast<wire::MessageType>(t));
  }
}

TEST_F(NetworkTest, TypedDropOnlyAffectsItsType) {
  net_.add_fault(
      std::make_shared<TypedDrop>(MessageType::kAmrIndication));
  send_ab(3);  // AMR indications: dropped
  net_.send(a_, b_, wire::FsConvergeReq{});
  sim_.run();
  EXPECT_EQ(net_.stats().of(MessageType::kAmrIndication).dropped_count, 3u);
  EXPECT_EQ(net_.stats().of(MessageType::kFsConvergeReq).delivered_count,
            1u);
}

TEST_F(NetworkTest, TableListsNonzeroTypesOnly) {
  send_ab(2);
  sim_.run();
  const std::string table = net_.stats().to_table();
  EXPECT_NE(table.find("AMRIndication"), std::string::npos);
  EXPECT_EQ(table.find("SiblingStoreReq"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace pahoehoe::net
