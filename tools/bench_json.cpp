#include "bench_json.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "util/timer.h"

namespace xplain::tools {

struct BenchReport::Impl {
  std::string name;
  util::Timer timer;
  solver::LpCounters start;
  std::vector<std::pair<std::string, double>> extra;
  std::vector<std::pair<std::string, std::string>> raw;
  bool written = false;
};

BenchReport::BenchReport(std::string name) : impl_(new Impl) {
  impl_->name = std::move(name);
  impl_->start = solver::lp_counters();
}

BenchReport::~BenchReport() {
  write();
  delete impl_;
}

void BenchReport::metric(const std::string& key, double value) {
  impl_->extra.emplace_back(key, value);
}

void BenchReport::raw(const std::string& key, std::string json_value) {
  impl_->raw.emplace_back(key, std::move(json_value));
}

void BenchReport::write() {
  if (impl_->written) return;
  impl_->written = true;
  const double wall = impl_->timer.seconds();
  const solver::LpCounters lp = solver::lp_counters() - impl_->start;
  std::ostringstream os;
  os.precision(9);
  os << "{\n"
     << "  \"bench\": \"" << impl_->name << "\",\n"
     << "  \"wall_seconds\": " << wall;
  for (const solver::LpCounterField& f : solver::kLpCounterFields)
    os << ",\n  \"" << f.key << "\": " << lp.*f.member;
  for (const auto& [k, v] : impl_->extra) os << ",\n  \"" << k << "\": " << v;
  for (const auto& [k, v] : impl_->raw) os << ",\n  \"" << k << "\": " << v;
  os << "\n}\n";
  std::ofstream out("BENCH_" + impl_->name + ".json");
  out << os.str();
}

}  // namespace xplain::tools
