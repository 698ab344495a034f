// Simulated NIC tests: RSS steering into RX queues, queue-full drops,
// TX/egress round trip, malformed-frame handling.
#include "src/net/nic.h"

#include <gtest/gtest.h>

#include <cstring>

namespace psp {
namespace {

class NicTest : public ::testing::Test {
 protected:
  NicTest() : pool_(kMaxPacketSize, 64), nic_(4, 8, &pool_) {}

  PacketRef MakeRequest(uint16_t src_port) {
    std::byte* buf = pool_.AllocGlobal();
    RequestFrame f;
    f.flow = FlowTuple{0x0A000001, 0x0A000002, src_port, 6789};
    f.request_type = 1;
    const uint32_t len = BuildRequestPacket(f, buf, pool_.buffer_size());
    return PacketRef{buf, len};
  }

  MemoryPool pool_;
  SimulatedNic nic_;
};

TEST_F(NicTest, DeliverFromWireSteersByRss) {
  // Same flow always lands on the same RX queue.
  const PacketRef a = MakeRequest(1000);
  const PacketRef b = MakeRequest(1000);
  ASSERT_TRUE(nic_.DeliverFromWire(a));
  ASSERT_TRUE(nic_.DeliverFromWire(b));
  uint32_t first_queue = UINT32_MAX;
  for (uint32_t q = 0; q < nic_.num_queues(); ++q) {
    PacketRef out;
    if (nic_.PollRx(q, &out)) {
      first_queue = q;
      PacketRef second;
      EXPECT_TRUE(nic_.PollRx(q, &second)) << "flow split across queues";
      break;
    }
  }
  EXPECT_NE(first_queue, UINT32_MAX);
}

TEST_F(NicTest, DifferentFlowsSpread) {
  // 64 distinct flows must hit more than one queue.
  bool used[4] = {false, false, false, false};
  for (uint16_t p = 0; p < 32; ++p) {
    nic_.DeliverFromWire(MakeRequest(static_cast<uint16_t>(1000 + p * 13)));
  }
  for (uint32_t q = 0; q < 4; ++q) {
    PacketRef out;
    while (nic_.PollRx(q, &out)) {
      used[q] = true;
      pool_.FreeGlobal(out.data);
    }
  }
  int queues_used = used[0] + used[1] + used[2] + used[3];
  EXPECT_GE(queues_used, 2);
}

TEST_F(NicTest, MalformedFramesDropped) {
  std::byte* buf = pool_.AllocGlobal();
  std::memset(buf, 0xFF, 32);
  EXPECT_FALSE(nic_.DeliverFromWire(PacketRef{buf, 32}));
  EXPECT_EQ(nic_.rx_drops(), 1u);
  pool_.FreeGlobal(buf);
}

TEST_F(NicTest, QueueFullDrops) {
  // Queue depth is 8; the 9th delivery to the same queue must drop.
  uint64_t accepted = 0;
  for (int i = 0; i < 12; ++i) {
    if (nic_.DeliverToQueue(0, MakeRequest(1))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(nic_.rx_drops(), 4u);
}

TEST_F(NicTest, TransmitReachesEgress) {
  const PacketRef pkt = MakeRequest(7);
  ASSERT_TRUE(nic_.Transmit(2, pkt));
  PacketRef out;
  ASSERT_TRUE(nic_.PollEgress(&out));
  EXPECT_EQ(out.data, pkt.data);
  EXPECT_FALSE(nic_.PollEgress(&out));
}

// Books balance on egress: with nobody draining, transmits past the ring's
// capacity are refused and counted, so every frame sent is either drained
// by the client or a tx drop.
TEST_F(NicTest, FullEgressRingCountsTxDrops) {
  constexpr uint64_t kSent = 20;  // well past the 8-deep ring
  const PacketRef pkt = MakeRequest(5);
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < kSent; ++i) {
    accepted += nic_.Transmit(1, pkt) ? 1 : 0;
  }
  uint64_t drained = 0;
  PacketRef out;
  while (nic_.PollEgress(&out)) {
    ++drained;
  }
  EXPECT_EQ(drained, accepted);
  EXPECT_GT(nic_.tx_drops(), 0u);
  EXPECT_EQ(kSent, drained + nic_.tx_drops());
  EXPECT_EQ(nic_.rx_drops(), 0u);
}

TEST_F(NicTest, EgressRoundRobinAcrossQueues) {
  const PacketRef a = MakeRequest(1);
  const PacketRef b = MakeRequest(2);
  ASSERT_TRUE(nic_.Transmit(0, a));
  ASSERT_TRUE(nic_.Transmit(3, b));
  PacketRef out1;
  PacketRef out2;
  ASSERT_TRUE(nic_.PollEgress(&out1));
  ASSERT_TRUE(nic_.PollEgress(&out2));
  EXPECT_NE(out1.data, out2.data);
}

TEST_F(NicTest, NetworkContextAllocTransmit) {
  NetworkContext ctx(&nic_, 1);
  std::byte* buf = ctx.AllocBuffer();
  ASSERT_NE(buf, nullptr);
  RequestFrame f;
  f.flow = FlowTuple{1, 2, 3, 4};
  const uint32_t len = BuildRequestPacket(f, buf, pool_.buffer_size());
  EXPECT_TRUE(ctx.Transmit(PacketRef{buf, len}));
  PacketRef out;
  EXPECT_TRUE(nic_.PollEgress(&out));
  ctx.FreeBuffer(out.data);
}

TEST_F(NicTest, DeliverToInvalidQueueDrops) {
  EXPECT_FALSE(nic_.DeliverToQueue(99, MakeRequest(1)));
  EXPECT_EQ(nic_.rx_drops(), 1u);
}

}  // namespace
}  // namespace psp
