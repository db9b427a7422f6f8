#include "workload.h"

#include <utility>

#include "runtime/executor.h"

namespace perfbench {

using trichroma::Task;

namespace {

// Fresh draws per parallel round on random_split, per worker.
constexpr int kRandomRoundPerJob = 4;
// Copies of the two deep-probe tasks per parallel round, per worker.
constexpr int kDeepRoundPerJob = 2;
// Warm-up draws on random_split (decided against a separate store, so the
// measured store starts empty).
constexpr int kRandomWarmupDraws = 8;

Item item_of(std::string name, Task task) {
  return Item{std::move(name), std::make_shared<const Task>(std::move(task))};
}

void decide_all(const std::vector<Item>& items,
                const trichroma::SolvabilityOptions& options) {
  for (const Item& item : items) {
    trichroma::run_pipeline(trichroma::clone_task(*item.proto), options);
  }
}

}  // namespace

std::optional<WorkloadKind> parse_workload(const std::string& name) {
  if (name == "catalog_cold") return WorkloadKind::kCatalogCold;
  if (name == "catalog_warm") return WorkloadKind::kCatalogWarm;
  if (name == "random_split") return WorkloadKind::kRandomSplit;
  if (name == "deep_probe") return WorkloadKind::kDeepProbe;
  return std::nullopt;
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed, std::string work_dir)
    : kind_(kind), seed_(seed), work_dir_(std::move(work_dir)) {
  options_.threads = 1;
  const std::string store = work_dir_ + "/store";
  switch (kind_) {
    case WorkloadKind::kCatalogWarm:
      options_.cache_dir = store;
      traced_store_ = store;
      break;
    case WorkloadKind::kRandomSplit:
      options_.cache_dir = store;
      traced_store_ = work_dir_ + "/store-traced";
      break;
    case WorkloadKind::kCatalogCold:
    case WorkloadKind::kDeepProbe:
      break;
  }
}

void Workload::set_up(int jobs) {
  switch (kind_) {
    case WorkloadKind::kCatalogCold:
    case WorkloadKind::kCatalogWarm:
      for (const trichroma::zoo::CatalogEntry& e : trichroma::zoo::catalog()) {
        fixed_.push_back(item_of(e.name, e.build()));
      }
      break;
    case WorkloadKind::kDeepProbe:
      fixed_.push_back(
          item_of("approx_agreement_3", trichroma::zoo::approximate_agreement(3)));
      fixed_.push_back(
          item_of("approx_agreement_4", trichroma::zoo::approximate_agreement(4)));
      break;
    case WorkloadKind::kRandomSplit: {
      trichroma::zoo::RandomTaskParams params;  // defaults: restricted faces
      params.seed = seed_;
      stream_ = std::make_unique<trichroma::zoo::RandomTaskStream>(params);
      break;
    }
  }

  // Warm-up: one cold pass fills Ch templates and the other lazy statics;
  // on catalog_warm the same pass publishes every verdict, so each timed
  // verdict afterwards is a store hit.
  if (kind_ == WorkloadKind::kRandomSplit) {
    trichroma::SolvabilityOptions warmup = options_;
    warmup.cache_dir = work_dir_ + "/store-warmup";
    decide_all(next_pass(kRandomWarmupDraws), warmup);
  } else {
    decide_all(fixed_, options_);
    if (kind_ == WorkloadKind::kCatalogWarm) decide_all(fixed_, options_);
  }
  trichroma::Executor::global().ensure_workers(jobs > 1 ? jobs - 1 : 0);
}

std::vector<Item> Workload::next_pass(std::size_t random_draws) {
  if (kind_ != WorkloadKind::kRandomSplit) return fixed_;
  std::vector<Item> pass;
  pass.reserve(random_draws);
  for (std::size_t i = 0; i < random_draws; ++i) {
    ++draws_;
    pass.push_back(item_of(
        "random_" + std::to_string(seed_) + "_" + std::to_string(draws_),
        stream_->next()));
  }
  return pass;
}

std::vector<Item> Workload::parallel_round(int jobs) {
  if (kind_ == WorkloadKind::kRandomSplit) {
    return next_pass(static_cast<std::size_t>(kRandomRoundPerJob * jobs));
  }
  std::vector<Item> round;
  for (int i = 0; i < kDeepRoundPerJob * jobs; ++i) {
    round.insert(round.end(), fixed_.begin(), fixed_.end());
  }
  return round;
}

std::size_t Workload::dedup_skips() const {
  return stream_ == nullptr ? 0 : stream_->skipped();
}

std::size_t Workload::draws() const { return draws_; }

}  // namespace perfbench
