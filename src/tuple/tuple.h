// Tuple: an immutable record flowing through the dataflow. Copies are cheap
// (shared payload) because eddies, SteMs, and the CACQ lineage machinery all
// hold references to the same record concurrently.

#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "tuple/schema.h"
#include "tuple/value.h"

namespace tcq {

/// Envelope kind: what a record flowing through the dataflow *means*.
/// Ordinary results are kData; kPunctuation carries an event-time low
/// watermark (no later tuple from that source will have ts < low_watermark);
/// kRetraction withdraws a previously emitted result (CEDR-style
/// speculation, DESIGN.md §12).
enum class TupleKind : uint8_t {
  kData = 0,
  kPunctuation = 1,
  kRetraction = 2,
};

/// A source's event-time promise: every future tuple from `source` has
/// timestamp >= low_watermark. Travels in-band as a control tuple (or on a
/// TupleBatch's control lane) so ordering relative to data is preserved.
struct Punctuation {
  SourceId source = 0;
  Timestamp low_watermark = kMinTimestamp;

  bool operator==(const Punctuation& other) const {
    return source == other.source && low_watermark == other.low_watermark;
  }
};

/// Immutable payload shared by all copies of a Tuple.
struct TupleData {
  SchemaRef schema;
  std::vector<Value> values;
  /// Stream timestamp (logical sequence number or physical time, per the
  /// stream's declared notion of time — paper §4.1).
  Timestamp timestamp = 0;
  /// Which base streams this (possibly intermediate) tuple spans.
  SourceSet sources = 0;
  /// Envelope kind (data / punctuation / retraction).
  TupleKind kind = TupleKind::kData;
};

class Tuple {
 public:
  Tuple() = default;

  /// Builds a base-stream tuple. The source set is taken from the schema.
  static Tuple Make(SchemaRef schema, std::vector<Value> values,
                    Timestamp timestamp);

  /// Concatenates two tuples into a join intermediate using a precomputed
  /// output schema (see Schema::Concat). The result timestamp is the max of
  /// the inputs' *event* times (the moment the match could first exist).
  static Tuple Concat(const Tuple& left, const Tuple& right,
                      SchemaRef out_schema);

  /// Builds an in-band control tuple carrying `{source, low_watermark}`.
  /// Payload-free (empty schema); timestamp mirrors the watermark so
  /// time-ordered paths keep control and data in relative order.
  static Tuple MakePunctuation(SourceId source, Timestamp low_watermark);

  /// Tags a copy of `t` as a retraction: same schema/values/timestamp, but
  /// kind = kRetraction. Consumers subtract it from accumulated results.
  static Tuple Retraction(const Tuple& t);

  bool valid() const { return data_ != nullptr; }

  const SchemaRef& schema() const { return data_->schema; }
  size_t num_fields() const { return data_->values.size(); }
  const Value& at(size_t i) const {
    assert(i < data_->values.size());
    return data_->values[i];
  }
  const std::vector<Value>& values() const { return data_->values; }
  Timestamp timestamp() const { return data_->timestamp; }
  SourceSet sources() const { return data_->sources; }
  TupleKind kind() const { return data_->kind; }
  bool IsData() const { return data_->kind == TupleKind::kData; }
  bool IsPunctuation() const {
    return data_->kind == TupleKind::kPunctuation;
  }
  bool IsRetraction() const { return data_->kind == TupleKind::kRetraction; }

  /// The punctuation this control tuple carries; asserts IsPunctuation().
  Punctuation AsPunctuation() const;

  /// Value of the named field; asserts that the field exists.
  const Value& Get(const std::string& name) const;

  std::string ToString() const;

  bool operator==(const Tuple& other) const;

  /// True when both handles share one payload (the same record, not merely
  /// equal values).
  bool SamePayload(const Tuple& other) const { return data_ == other.data_; }

 private:
  explicit Tuple(std::shared_ptr<const TupleData> data)
      : data_(std::move(data)) {}

  std::shared_ptr<const TupleData> data_;
};

// The batched-pipeline unit, TupleBatch, lives in tuple/tuple_batch.h: a
// contiguous same-source run of tuples with a small-batch inline buffer.

}  // namespace tcq
