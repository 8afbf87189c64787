// Projection: maps tuples onto a subset (or reordering) of attributes.
// Applied at the output boundary of a query rather than routed inside the
// eddy, since projecting early would destroy attributes later modules need.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "operators/predicate.h"
#include "tuple/tuple.h"

namespace tcq {

class Projection {
 public:
  /// Projects onto the given attributes, in order.
  explicit Projection(std::vector<AttrRef> attrs) : attrs_(std::move(attrs)) {}

  /// Builds the output schema for a given input schema. Fails if an
  /// attribute is missing.
  Result<SchemaRef> OutputSchema(const SchemaRef& input) const;

  /// Projects one tuple. The output schema and the attributes' field
  /// positions are resolved once per distinct input schema (eddy
  /// intermediates vary in format) and cached, so a projected result copies
  /// values by position without any by-name lookup.
  Result<Tuple> Apply(const Tuple& tuple) const;

  const std::vector<AttrRef>& attrs() const { return attrs_; }

  /// Number of input layouts resolved so far (one per distinct field list).
  size_t cached_layouts() const { return cache_.size(); }

 private:
  /// One input layout's resolved form, keyed by the last schema seen with
  /// that layout. Holding it keeps its address from being reused by another
  /// schema while cached.
  struct Compiled {
    SchemaRef input;
    SchemaRef output;
    std::vector<size_t> indices;
  };

  std::vector<AttrRef> attrs_;
  // Per-input-layout cache (single-threaded use).
  mutable std::vector<Compiled> cache_;
};

}  // namespace tcq
