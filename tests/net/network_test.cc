#include "src/net/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace edk {
namespace {

class TestNode : public SimNode {};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 3}) {}

  TestNode* MakeNode(const char* country) {
    nodes_.push_back(std::make_unique<TestNode>());
    TestNode* node = nodes_.back().get();
    const CountryId c = geo_.FindCountry(country);
    node->set_attachment(c, geo_.SampleAs(c, rng_));
    network_.Register(node);
    return node;
  }

  Geography geo_;
  SimNetwork network_;
  Rng rng_{3};
  std::vector<std::unique_ptr<TestNode>> nodes_;
};

TEST_F(NetworkTest, RegisterAssignsSequentialIds) {
  TestNode* a = MakeNode("FR");
  TestNode* b = MakeNode("DE");
  EXPECT_EQ(a->node_id(), 0u);
  EXPECT_EQ(b->node_id(), 1u);
  EXPECT_EQ(network_.node_count(), 2u);
  EXPECT_EQ(network_.node(0), a);
  EXPECT_EQ(network_.node(1), b);
}

TEST_F(NetworkTest, SendDeliversAfterPositiveDelay) {
  TestNode* a = MakeNode("FR");
  TestNode* b = MakeNode("US");
  bool delivered = false;
  double delivery_time = -1;
  network_.Send(a->node_id(), b->node_id(), [&] {
    delivered = true;
    delivery_time = network_.NodeNow(b->node_id());
  });
  EXPECT_FALSE(delivered);
  network_.Run();
  EXPECT_TRUE(delivered);
  // Intercontinental: at least the 130ms base.
  EXPECT_GE(delivery_time, 0.13);
  EXPECT_EQ(network_.messages_sent(), 1u);
}

TEST_F(NetworkTest, ExtraDelayIsAdditive) {
  TestNode* a = MakeNode("FR");
  TestNode* b = MakeNode("FR");
  double plain = -1;
  double padded = -1;
  network_.Send(a->node_id(), b->node_id(), [&] { plain = network_.NodeNow(b->node_id()); });
  network_.Run();
  const double start = network_.now();
  network_.Send(a->node_id(), b->node_id(),
                [&] { padded = network_.NodeNow(b->node_id()); }, /*extra_delay=*/5.0);
  network_.Run();
  EXPECT_GE(padded - start, 5.0);
  EXPECT_LT(plain, 1.0);
}

TEST_F(NetworkTest, DelayBetweenRespectsGeographyTiers) {
  TestNode* fr1 = MakeNode("FR");
  TestNode* fr2 = MakeNode("FR");
  TestNode* us = MakeNode("US");
  double domestic = 0;
  double intercontinental = 0;
  for (int i = 0; i < 500; ++i) {
    domestic += network_.DelayBetween(fr1->node_id(), fr2->node_id());
    intercontinental += network_.DelayBetween(fr1->node_id(), us->node_id());
  }
  EXPECT_LT(domestic, intercontinental);
}

TEST_F(NetworkTest, MessageCounterAccumulates) {
  TestNode* a = MakeNode("FR");
  TestNode* b = MakeNode("DE");
  for (int i = 0; i < 10; ++i) {
    network_.Send(a->node_id(), b->node_id(), [] {});
  }
  EXPECT_EQ(network_.messages_sent(), 10u);
  network_.Run();
  EXPECT_EQ(network_.messages_sent(), 10u);  // Counted at send, not delivery.
}

}  // namespace
}  // namespace edk
