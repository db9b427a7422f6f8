#include "topology/vertex.h"

#include <cassert>

namespace trichroma {

VertexId VertexPool::vertex(Color color, ValueId value) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(color)) << 32) |
      raw(value);
  auto it = index_.find(key);
  if (it != index_.end()) return VertexId{it->second};
  const auto id = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{color, value});
  index_.emplace(key, id);
  return VertexId{id};
}

VertexId VertexPool::vertex(Color color, std::int64_t value) {
  return vertex(color, values_->of_int(value));
}

VertexId VertexPool::vertex(Color color, std::string_view value) {
  return vertex(color, values_->of_string(value));
}

Color VertexPool::color(VertexId v) const {
  assert(raw(v) < entries_.size());
  return entries_[raw(v)].color;
}

ValueId VertexPool::value(VertexId v) const {
  assert(raw(v) < entries_.size());
  return entries_[raw(v)].value;
}

std::string VertexPool::name(VertexId v) const {
  const Entry& e = entries_[raw(v)];
  std::string out;
  if (e.color == kNoColor) {
    out += "_:";
  } else {
    out += 'P';
    out += std::to_string(e.color);
    out += ':';
  }
  out += values_->to_string(e.value);
  return out;
}

}  // namespace trichroma
