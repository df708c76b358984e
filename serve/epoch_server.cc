#include "serve/epoch_server.h"

#include <algorithm>
#include <utility>

namespace betalike {

bool CrossEpochConsistent(const ServedAnswer& a, const ServedAnswer& b) {
  if (a.status != AnswerStatus::kOk || b.status != AnswerStatus::kOk) {
    return false;
  }
  const double lo = a.ci_lo > b.ci_lo ? a.ci_lo : b.ci_lo;
  const double hi = a.ci_hi < b.ci_hi ? a.ci_hi : b.ci_hi;
  return lo <= hi;
}

Result<std::unique_ptr<EpochServer>> EpochServer::Create(
    int64_t epoch_id, std::shared_ptr<const Estimator> estimator,
    const QueryServerOptions& options) {
  if (epoch_id < 0) {
    return Status::InvalidArgument("epoch_id must be non-negative");
  }
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  Result<std::unique_ptr<QueryServer>> server =
      QueryServer::Create(options);
  if (!server.ok()) return server.status();
  auto registry = std::make_shared<Registry>();
  registry->epochs.emplace_back(epoch_id, std::move(estimator));
  return std::unique_ptr<EpochServer>(
      new EpochServer(std::move(*server), std::move(registry)));
}

EpochServer::EpochServer(std::unique_ptr<QueryServer> server,
                         std::shared_ptr<const Registry> registry)
    : server_(std::move(server)), registry_(std::move(registry)) {}

std::shared_ptr<const EpochServer::Registry> EpochServer::Snapshot() const {
  return std::atomic_load(&registry_);
}

Status EpochServer::PublishEpoch(int64_t epoch_id,
                                 std::shared_ptr<const Estimator> estimator) {
  if (epoch_id < 0) {
    return Status::InvalidArgument("epoch_id must be non-negative");
  }
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Registry> current = Snapshot();
  auto next = std::make_shared<Registry>(*current);
  const auto pos = std::lower_bound(
      next->epochs.begin(), next->epochs.end(), epoch_id,
      [](const auto& entry, int64_t id) { return entry.first < id; });
  if (pos != next->epochs.end() && pos->first == epoch_id) {
    return Status::InvalidArgument("epoch_id is already live");
  }
  next->epochs.emplace(pos, epoch_id, std::move(estimator));
  std::atomic_store(&registry_,
                    std::shared_ptr<const Registry>(std::move(next)));
  return Status::Ok();
}

Status EpochServer::RetireEpoch(int64_t epoch_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Registry> current = Snapshot();
  auto next = std::make_shared<Registry>(*current);
  const auto pos = std::lower_bound(
      next->epochs.begin(), next->epochs.end(), epoch_id,
      [](const auto& entry, int64_t id) { return entry.first < id; });
  if (pos == next->epochs.end() || pos->first != epoch_id) {
    return Status::NotFound("epoch is not live");
  }
  if (next->epochs.size() == 1) {
    return Status::FailedPrecondition(
        "cannot retire the last live epoch");
  }
  next->epochs.erase(pos);
  std::atomic_store(&registry_,
                    std::shared_ptr<const Registry>(std::move(next)));
  return Status::Ok();
}

std::vector<int64_t> EpochServer::epochs() const {
  const std::shared_ptr<const Registry> registry = Snapshot();
  std::vector<int64_t> ids;
  ids.reserve(registry->epochs.size());
  for (const auto& entry : registry->epochs) ids.push_back(entry.first);
  return ids;
}

int64_t EpochServer::latest_epoch() const {
  // The registry is never empty (Create seeds one epoch and RetireEpoch
  // refuses to remove the last), and it is sorted ascending.
  return Snapshot()->epochs.back().first;
}

Result<std::shared_ptr<const Estimator>> EpochServer::EpochEstimator(
    int64_t epoch_id) const {
  const std::shared_ptr<const Registry> registry = Snapshot();
  if (epoch_id == kLatestEpoch) {
    return registry->epochs.back().second;
  }
  const auto pos = std::lower_bound(
      registry->epochs.begin(), registry->epochs.end(), epoch_id,
      [](const auto& entry, int64_t id) { return entry.first < id; });
  if (pos == registry->epochs.end() || pos->first != epoch_id) {
    return Status::NotFound("epoch is not live");
  }
  return pos->second;
}

Result<std::future<std::vector<ServedAnswer>>> EpochServer::SubmitBatch(
    std::vector<ServedRequest> batch, int64_t epoch_id,
    const SubmitOptions& options) {
  Result<std::shared_ptr<const Estimator>> estimator =
      EpochEstimator(epoch_id);
  if (!estimator.ok()) return estimator.status();
  return server_->SubmitBatch(std::move(*estimator), std::move(batch),
                              options);
}

Result<std::vector<ServedAnswer>> EpochServer::AnswerBatch(
    std::vector<ServedRequest> batch, int64_t epoch_id,
    const SubmitOptions& options) {
  Result<std::shared_ptr<const Estimator>> estimator =
      EpochEstimator(epoch_id);
  if (!estimator.ok()) return estimator.status();
  return server_->AnswerBatch(std::move(*estimator), std::move(batch),
                              options);
}

}  // namespace betalike
