// Key-space shard map for the horizontally sharded server (docs/server.md).
//
// A sharded deployment partitions the key space across N fully independent
// UPSkipList stores ("shards"), each with its own pool set, allocator and
// DRAM-index rebuild. The mapping key -> shard is a fixed hash: stateless,
// and what the server routes every key by. Changing the mix or reduction
// would route existing keys to shards that do not hold them.
//
// The hash is a full-avalanche 64-bit mix (splitmix64 finalizer) reduced
// modulo the shard count. Sequential keys — the common YCSB and test
// pattern — therefore spread uniformly instead of landing on one shard.
// The map is persisted per shard in the store root (shard_count,
// shard_index), so reopening a shard set validates that the pools on disk
// actually form the topology the server is about to serve.
#pragma once

#include <cstdint>

namespace upsl {

/// splitmix64 finalizer: full avalanche, so modulo reduction is unbiased
/// enough for any realistic shard count.
inline constexpr std::uint64_t shard_mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Owning shard of `key` among `shard_count` shards. shard_count == 0 is
/// treated as 1 (unsharded legacy stores record 0 in their root).
inline constexpr std::uint32_t shard_of_key(std::uint64_t key,
                                            std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::uint32_t>(shard_mix64(key) % shard_count);
}

}  // namespace upsl
