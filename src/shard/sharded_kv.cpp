#include "shard/sharded_kv.h"

namespace escape::shard {

ShardedKv::ShardedKv(ShardedCluster& cluster)
    : cluster_(cluster), routed_(cluster.shards(), 0) {
  kvs_.reserve(cluster_.shards());
  for (ShardId shard = 0; shard < cluster_.shards(); ++shard) {
    kvs_.push_back(std::make_unique<kv::KvCluster>(cluster_.group(shard)));
  }
}

std::optional<kv::CommandResult> ShardedKv::put(const std::string& key,
                                                const std::string& value, Duration timeout) {
  const ShardId shard = owner(key);
  ++routed_[shard];
  return kvs_[shard]->put(key, value, timeout);
}

std::optional<kv::CommandResult> ShardedKv::get(const std::string& key, Duration timeout) {
  const ShardId shard = owner(key);
  ++routed_[shard];
  return kvs_[shard]->get(key, timeout);
}

std::optional<kv::CommandResult> ShardedKv::del(const std::string& key, Duration timeout) {
  const ShardId shard = owner(key);
  ++routed_[shard];
  return kvs_[shard]->del(key, timeout);
}

std::optional<kv::CommandResult> ShardedKv::read(const std::string& key, Duration timeout) {
  const ShardId shard = owner(key);
  ++routed_[shard];
  return kvs_[shard]->read(key, timeout);
}

std::vector<std::string> ShardedKv::routing_violations() const {
  std::vector<std::string> violations;
  for (ShardId shard = 0; shard < cluster_.shards(); ++shard) {
    for (const ServerId host : cluster_.group(shard).members()) {
      kvs_[shard]->store(host).for_each_key([&](const std::string& key) {
        const ShardId want = cluster_.shard_of(key);
        if (want != shard) {
          violations.push_back("key '" + key + "' found in shard " + std::to_string(shard) +
                               " replica " + server_name(host) + " but routes to shard " +
                               std::to_string(want));
        }
      });
    }
  }
  return violations;
}

}  // namespace escape::shard
