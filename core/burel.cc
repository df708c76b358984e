#include "core/burel.h"

#include <utility>

#include "core/sharded_burel.h"

namespace betalike {

Result<GeneralizedTable> AnonymizeWithBurel(
    std::shared_ptr<const Table> table, const BurelOptions& options,
    BurelProfile* profile) {
  ShardedBurelOptions sharded;
  sharded.burel = options;
  sharded.num_shards = 1;
  return AnonymizeSharded(std::move(table), sharded, profile);
}

}  // namespace betalike
