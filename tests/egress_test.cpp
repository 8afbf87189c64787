// Egress tests: push egress shedding policies, blocking semantics, and the
// pull egress "what happened since I left" cursor.

#include <gtest/gtest.h>

#include <thread>

#include "egress/egress.h"

namespace tcq {
namespace {

SchemaRef Sch() {
  return Schema::Make({{"v", ValueType::kInt64, 0}});
}

Delivery D(uint64_t qid, int64_t v, Timestamp ts) {
  return Delivery{qid, Tuple::Make(Sch(), {Value::Int64(v)}, ts)};
}

TEST(PushEgressTest, DeliversInOrder) {
  PushEgress egress;
  egress.Offer(D(1, 10, 1));
  egress.Offer(D(1, 20, 2));
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 10);
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 20);
  EXPECT_FALSE(egress.Poll(&d));
}

TEST(PushEgressTest, DropNewestSheds) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kDropNewest});
  EXPECT_TRUE(egress.Offer(D(1, 1, 1)));
  EXPECT_TRUE(egress.Offer(D(1, 2, 2)));
  EXPECT_FALSE(egress.Offer(D(1, 3, 3)));  // shed
  EXPECT_EQ(egress.shed(), 1u);
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 1);  // oldest kept
}

TEST(PushEgressTest, DropOldestKeepsFreshest) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kDropOldest});
  egress.Offer(D(1, 1, 1));
  egress.Offer(D(1, 2, 2));
  egress.Offer(D(1, 3, 3));
  EXPECT_EQ(egress.shed(), 1u);
  Delivery d;
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 2);
}

TEST(PushEgressTest, BlockAppliesBackpressure) {
  PushEgress egress({.capacity = 1, .shed = ShedPolicy::kBlock});
  ASSERT_TRUE(egress.Offer(D(1, 1, 1)));
  std::thread producer([&] { EXPECT_TRUE(egress.Offer(D(1, 2, 2))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Delivery d;
  ASSERT_TRUE(egress.Receive(&d));
  producer.join();
  ASSERT_TRUE(egress.Receive(&d));
  EXPECT_EQ(d.tuple.Get("v").AsInt64(), 2);
  EXPECT_EQ(egress.shed(), 0u);
}

TEST(PushEgressTest, CloseWakesReceivers) {
  PushEgress egress;
  std::thread client([&] {
    Delivery d;
    EXPECT_FALSE(egress.Receive(&d));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  egress.Close();
  client.join();
  EXPECT_FALSE(egress.Offer(D(1, 1, 1)));
}

std::vector<Tuple> Rows(int64_t from, int64_t n) {
  std::vector<Tuple> out;
  for (int64_t v = from; v < from + n; ++v) {
    out.push_back(Tuple::Make(Sch(), {Value::Int64(v)}, v));
  }
  return out;
}

TEST(PushEgressTest, BatchOfferKeepsOrderAndCountsOnce) {
  PushEgress egress;
  std::vector<Tuple> rows = Rows(1, 5);
  rows.push_back(Tuple::MakePunctuation(0, 5));
  EXPECT_EQ(egress.OfferBatch(3, rows), 6u);
  EXPECT_EQ(egress.delivered(), 6u);
  EXPECT_EQ(egress.punctuations_delivered(), 1u);
  Delivery d;
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(egress.Poll(&d));
    EXPECT_EQ(d.query_id, 3u);
    EXPECT_EQ(d.tuple.Get("v").AsInt64(), v);
  }
  ASSERT_TRUE(egress.Poll(&d));
  EXPECT_TRUE(d.tuple.IsPunctuation());
  EXPECT_FALSE(egress.Poll(&d));
}

TEST(PushEgressTest, BatchDropNewestShedsTheBatchTail) {
  PushEgress egress({.capacity = 4, .shed = ShedPolicy::kDropNewest});
  EXPECT_EQ(egress.OfferBatch(1, Rows(1, 3)), 3u);
  EXPECT_EQ(egress.OfferBatch(1, Rows(4, 3)), 1u);  // rows 5 and 6 shed
  EXPECT_EQ(egress.delivered() + egress.shed(), 6u);
  EXPECT_EQ(egress.shed(), 2u);
  Delivery d;
  for (int64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(egress.Poll(&d));
    EXPECT_EQ(d.tuple.Get("v").AsInt64(), v);
  }
}

TEST(PushEgressTest, BatchDropOldestKeepsTheFreshestRows) {
  PushEgress egress({.capacity = 4, .shed = ShedPolicy::kDropOldest});
  EXPECT_EQ(egress.OfferBatch(1, Rows(1, 3)), 3u);
  EXPECT_EQ(egress.OfferBatch(1, Rows(4, 6)), 6u);  // evicts rows 1..5
  EXPECT_EQ(egress.delivered(), 9u);
  EXPECT_EQ(egress.shed(), 5u);
  EXPECT_EQ(egress.buffered() + egress.shed(), 9u);
  Delivery d;
  for (int64_t v = 6; v <= 9; ++v) {
    ASSERT_TRUE(egress.Poll(&d));
    EXPECT_EQ(d.tuple.Get("v").AsInt64(), v);
  }
}

TEST(PushEgressTest, BatchBlockWaitsRowByRowForTheClient) {
  PushEgress egress({.capacity = 2, .shed = ShedPolicy::kBlock});
  std::thread producer([&] { EXPECT_EQ(egress.OfferBatch(1, Rows(1, 7)), 7u); });
  Delivery d;
  for (int64_t v = 1; v <= 7; ++v) {
    ASSERT_TRUE(egress.Receive(&d));
    EXPECT_EQ(d.tuple.Get("v").AsInt64(), v);
  }
  producer.join();
  EXPECT_EQ(egress.delivered(), 7u);
  EXPECT_EQ(egress.shed(), 0u);
}

TEST(PushEgressTest, ConcurrentBatchOffersAndPolls) {
  // Several engine threads offer batches while one client polls: nothing is
  // lost or duplicated, and each producer's rows stay in order.
  constexpr int kProducers = 3, kBatches = 200, kRows = 16;
  PushEgress egress({.capacity = 64, .shed = ShedPolicy::kBlock});
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int b = 0; b < kBatches; ++b) {
        (void)egress.OfferBatch(static_cast<uint64_t>(p),
                                Rows(int64_t{b} * kRows, kRows));
      }
    });
  }
  std::vector<int64_t> next(kProducers, 0);
  size_t got = 0;
  Delivery d;
  while (got < size_t{kProducers} * kBatches * kRows) {
    if (!egress.Poll(&d)) {
      std::this_thread::yield();
      continue;
    }
    ++got;
    EXPECT_EQ(d.tuple.Get("v").AsInt64(), next[d.query_id]++);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(egress.delivered(), got);
  EXPECT_EQ(egress.shed(), 0u);
}

TEST(PullEgressTest, FetchSinceCursor) {
  PullEgress egress;
  for (Timestamp t = 1; t <= 10; ++t) egress.Log(D(7, t, t));
  std::vector<Tuple> out;
  Timestamp cursor = egress.FetchSince(7, 0, &out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(cursor, 10);
  // Client disconnects; more results arrive; reconnect with cursor.
  for (Timestamp t = 11; t <= 15; ++t) egress.Log(D(7, t, t));
  out.clear();
  cursor = egress.FetchSince(7, cursor, &out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(cursor, 15);
  out.clear();
  EXPECT_EQ(egress.FetchSince(99, 0, &out), 0);
  EXPECT_TRUE(out.empty());
}

TEST(PullEgressTest, RetentionCap) {
  PullEgress egress({.max_per_query = 3});
  for (Timestamp t = 1; t <= 10; ++t) egress.Log(D(7, t, t));
  EXPECT_EQ(egress.LoggedCount(7), 3u);
  std::vector<Tuple> out;
  egress.FetchSince(7, 0, &out);
  EXPECT_EQ(out.front().timestamp(), 8);
}

}  // namespace
}  // namespace tcq
