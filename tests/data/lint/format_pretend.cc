// LINT-PATH: src/shard/format.cpp
//
// Pretend working tree for the annotated format-version fixtures: a
// deserializer with one line annotated as leaving the bytes alone. No
// findings of its own.
#include <cstdint>
#include <vector>

namespace fixture {

inline constexpr std::uint32_t kShardFormatVersion = 3;

std::vector<int> deserialize_shard(const std::vector<std::uint8_t>& bytes) {
  std::vector<int> nodes;
  // lint: allow(format-version-discipline) reserves capacity only; the bytes read are unchanged
  nodes.reserve(bytes.size() / 2);
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    nodes.push_back(bytes[i] | (bytes[i + 1] << 8));
  }
  return nodes;
}

}  // namespace fixture
