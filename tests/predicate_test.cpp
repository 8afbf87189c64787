// Tests for predicate evaluation: boolean factors, attribute resolution on
// base and concatenated tuples, null semantics, and composition.

#include <gtest/gtest.h>

#include "operators/predicate.h"
#include "operators/projection.h"
#include "tuple/tuple.h"

namespace tcq {
namespace {

SchemaRef StockSchema(SourceId source) {
  return Schema::Make({
      {"timestamp", ValueType::kTimestamp, source},
      {"stockSymbol", ValueType::kString, source},
      {"closingPrice", ValueType::kDouble, source},
  });
}

Tuple Stock(SourceId source, Timestamp ts, const std::string& sym,
            double price) {
  return Tuple::Make(
      StockSchema(source),
      {Value::TimestampVal(ts), Value::String(sym), Value::Double(price)}, ts);
}

TEST(PredicateTest, EvalCmpAllOps) {
  Value a = Value::Int64(1), b = Value::Int64(2);
  EXPECT_TRUE(EvalCmp(a, CmpOp::kLt, b));
  EXPECT_TRUE(EvalCmp(a, CmpOp::kLe, b));
  EXPECT_TRUE(EvalCmp(a, CmpOp::kNe, b));
  EXPECT_FALSE(EvalCmp(a, CmpOp::kEq, b));
  EXPECT_FALSE(EvalCmp(a, CmpOp::kGt, b));
  EXPECT_FALSE(EvalCmp(a, CmpOp::kGe, b));
  EXPECT_TRUE(EvalCmp(a, CmpOp::kEq, a));
}

TEST(PredicateTest, NullComparisonsAreFalse) {
  EXPECT_FALSE(EvalCmp(Value::Null(), CmpOp::kEq, Value::Null()));
  EXPECT_FALSE(EvalCmp(Value::Null(), CmpOp::kLt, Value::Int64(1)));
  EXPECT_FALSE(EvalCmp(Value::Int64(1), CmpOp::kNe, Value::Null()));
}

TEST(PredicateTest, CompareConstOnTuple) {
  // The paper's landmark example: closingPrice > 50.00.
  auto p = MakeCompareConst({0, "closingPrice"}, CmpOp::kGt,
                            Value::Double(50.0));
  EXPECT_TRUE(p->Eval(Stock(0, 1, "MSFT", 51.0)));
  EXPECT_FALSE(p->Eval(Stock(0, 2, "MSFT", 49.0)));
  EXPECT_EQ(p->sources(), SourceBit(0));
}

TEST(PredicateTest, StringEquality) {
  auto p = MakeCompareConst({0, "stockSymbol"}, CmpOp::kEq,
                            Value::String("MSFT"));
  EXPECT_TRUE(p->Eval(Stock(0, 1, "MSFT", 51.0)));
  EXPECT_FALSE(p->Eval(Stock(0, 1, "AAPL", 51.0)));
}

TEST(PredicateTest, RangeInclusiveExclusive) {
  auto incl = MakeRange({0, "closingPrice"}, Value::Double(10.0),
                        Value::Double(20.0));
  EXPECT_TRUE(incl->Eval(Stock(0, 1, "X", 10.0)));
  EXPECT_TRUE(incl->Eval(Stock(0, 1, "X", 20.0)));
  EXPECT_FALSE(incl->Eval(Stock(0, 1, "X", 20.5)));

  auto excl = MakeRange({0, "closingPrice"}, Value::Double(10.0),
                        Value::Double(20.0), false, false);
  EXPECT_FALSE(excl->Eval(Stock(0, 1, "X", 10.0)));
  EXPECT_FALSE(excl->Eval(Stock(0, 1, "X", 20.0)));
  EXPECT_TRUE(excl->Eval(Stock(0, 1, "X", 15.0)));
}

TEST(PredicateTest, CompareAttrsAcrossSources) {
  // The paper's sliding-window join: c2.closingPrice > c1.closingPrice AND
  // c2.timestamp = c1.timestamp.
  auto price = MakeCompareAttrs({1, "closingPrice"}, CmpOp::kGt,
                                {0, "closingPrice"});
  auto time = MakeCompareAttrs({1, "timestamp"}, CmpOp::kEq,
                               {0, "timestamp"});
  Tuple c1 = Stock(0, 5, "MSFT", 50.0);
  Tuple c2 = Stock(1, 5, "AAPL", 60.0);
  Tuple joined = Tuple::Concat(c1, c2, Schema::Concat(c1.schema(), c2.schema()));
  EXPECT_TRUE(price->Eval(joined));
  EXPECT_TRUE(time->Eval(joined));
  EXPECT_EQ(price->sources(), SourceBit(0) | SourceBit(1));

  Tuple c2_low = Stock(1, 5, "AAPL", 40.0);
  Tuple joined2 =
      Tuple::Concat(c1, c2_low, Schema::Concat(c1.schema(), c2_low.schema()));
  EXPECT_FALSE(price->Eval(joined2));
}

TEST(PredicateTest, CanEvalRequiresSpannedSources) {
  auto join = MakeCompareAttrs({1, "closingPrice"}, CmpOp::kGt,
                               {0, "closingPrice"});
  Tuple base = Stock(0, 1, "MSFT", 50.0);
  EXPECT_FALSE(join->CanEval(base));
  Tuple other = Stock(1, 1, "AAPL", 60.0);
  Tuple joined =
      Tuple::Concat(base, other, Schema::Concat(base.schema(), other.schema()));
  EXPECT_TRUE(join->CanEval(joined));
}

TEST(PredicateTest, AndOrNotComposition) {
  auto gt = MakeCompareConst({0, "closingPrice"}, CmpOp::kGt,
                             Value::Double(50.0));
  auto msft = MakeCompareConst({0, "stockSymbol"}, CmpOp::kEq,
                               Value::String("MSFT"));
  auto both = MakeAnd({gt, msft});
  auto either = MakeOr({gt, msft});
  auto neither = MakeNot(either);

  Tuple hit = Stock(0, 1, "MSFT", 55.0);
  Tuple half = Stock(0, 1, "AAPL", 55.0);
  Tuple miss = Stock(0, 1, "AAPL", 45.0);

  EXPECT_TRUE(both->Eval(hit));
  EXPECT_FALSE(both->Eval(half));
  EXPECT_TRUE(either->Eval(half));
  EXPECT_FALSE(either->Eval(miss));
  EXPECT_TRUE(neither->Eval(miss));
  EXPECT_TRUE(MakeTrue()->Eval(miss));
}

TEST(PredicateTest, ResolveAttrHandlesDuplicatedNames) {
  Tuple a = Stock(0, 1, "MSFT", 50.0);
  Tuple b = Stock(1, 2, "AAPL", 60.0);
  Tuple joined = Tuple::Concat(a, b, Schema::Concat(a.schema(), b.schema()));
  const Value* v0 = ResolveAttr(joined, {0, "closingPrice"});
  const Value* v1 = ResolveAttr(joined, {1, "closingPrice"});
  ASSERT_NE(v0, nullptr);
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v0->AsDouble(), 50.0);
  EXPECT_DOUBLE_EQ(v1->AsDouble(), 60.0);
  EXPECT_EQ(ResolveAttr(joined, {2, "closingPrice"}), nullptr);
}

TEST(PredicateTest, ToStringIsReadable) {
  auto p = MakeAnd({MakeCompareConst({0, "closingPrice"}, CmpOp::kGt,
                                     Value::Double(50.0)),
                    MakeCompareAttrs({1, "timestamp"}, CmpOp::kEq,
                                     {0, "timestamp"})});
  EXPECT_EQ(p->ToString(),
            "(s0.closingPrice > 50 AND s1.timestamp = s0.timestamp)");
}

TEST(ProjectionTest, ProjectsSubsetInOrder) {
  Projection proj({{0, "closingPrice"}, {0, "stockSymbol"}});
  Tuple t = Stock(0, 3, "MSFT", 51.0);
  auto r = proj.Apply(t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_fields(), 2u);
  EXPECT_DOUBLE_EQ(r->at(0).AsDouble(), 51.0);
  EXPECT_EQ(r->at(1).AsString(), "MSFT");
  EXPECT_EQ(r->timestamp(), 3);
}

TEST(ProjectionTest, MissingAttributeIsError) {
  Projection proj({{0, "volume"}});
  auto r = proj.Apply(Stock(0, 3, "MSFT", 51.0));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ProjectionTest, WorksAcrossJoinedFormats) {
  Projection proj({{1, "stockSymbol"}});
  Tuple a = Stock(0, 1, "MSFT", 50.0);
  Tuple b = Stock(1, 2, "AAPL", 60.0);
  Tuple ab = Tuple::Concat(a, b, Schema::Concat(a.schema(), b.schema()));
  Tuple ba = Tuple::Concat(b, a, Schema::Concat(b.schema(), a.schema()));
  EXPECT_EQ(proj.Apply(ab)->at(0).AsString(), "AAPL");
  EXPECT_EQ(proj.Apply(ba)->at(0).AsString(), "AAPL");
}

TEST(ProjectionTest, FreshEqualSchemasShareOneCacheEntry) {
  // Windowed joins build a new (equal) schema for every composite result;
  // the cache must stay one entry per layout, not grow per result.
  Projection proj({{1, "closingPrice"}, {0, "stockSymbol"}});
  Tuple a = Stock(0, 1, "MSFT", 50.0);
  for (int i = 0; i < 1000; ++i) {
    Tuple b = Stock(1, 2 + i, "AAPL", 60.0 + i);
    Tuple ab = Tuple::Concat(a, b, Schema::Concat(a.schema(), b.schema()));
    auto r = proj.Apply(ab);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->at(0).AsDouble(), 60.0 + i);
    EXPECT_EQ(r->at(1).AsString(), "MSFT");
  }
  EXPECT_EQ(proj.cached_layouts(), 1u);
  Tuple b = Stock(1, 2, "AAPL", 60.0);
  Tuple ba = Tuple::Concat(b, a, Schema::Concat(b.schema(), a.schema()));
  EXPECT_EQ(proj.Apply(ba)->at(1).AsString(), "MSFT");
  EXPECT_EQ(proj.cached_layouts(), 2u);
}

}  // namespace
}  // namespace tcq
