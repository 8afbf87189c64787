#include "operators/projection.h"

namespace tcq {

Result<SchemaRef> Projection::OutputSchema(const SchemaRef& input) const {
  std::vector<Field> fields;
  fields.reserve(attrs_.size());
  for (const AttrRef& a : attrs_) {
    auto idx = input->IndexOf(a.name, a.source);
    if (!idx.has_value()) {
      return Status::NotFound("projection attribute " + a.ToString() +
                              " not in schema " + input->ToString());
    }
    fields.push_back(input->field(*idx));
  }
  return Schema::Make(std::move(fields));
}

Result<Tuple> Projection::Apply(const Tuple& tuple) const {
  const Compiled* c = nullptr;
  for (const Compiled& cached : cache_) {
    if (cached.input.get() == tuple.schema().get()) {
      c = &cached;
      break;
    }
  }
  if (c == nullptr) {
    // Composite tuples (e.g. windowed joins) carry a fresh but equal schema
    // per result: reuse the entry of an equal layout and re-key it to the
    // newest schema, so the cache stays one entry per distinct layout.
    for (Compiled& cached : cache_) {
      if (*cached.input == *tuple.schema()) {
        cached.input = tuple.schema();
        c = &cached;
        break;
      }
    }
  }
  if (c == nullptr) {
    Compiled built;
    built.input = tuple.schema();
    TCQ_ASSIGN_OR_RETURN(built.output, OutputSchema(tuple.schema()));
    built.indices.reserve(attrs_.size());
    for (const AttrRef& a : attrs_) {
      built.indices.push_back(*tuple.schema()->IndexOf(a.name, a.source));
    }
    cache_.push_back(std::move(built));
    c = &cache_.back();
  }
  std::vector<Value> values;
  values.reserve(c->indices.size());
  for (size_t i : c->indices) values.push_back(tuple.at(i));
  return Tuple::Make(c->output, std::move(values), tuple.timestamp());
}

}  // namespace tcq
