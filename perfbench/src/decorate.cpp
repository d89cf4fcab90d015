#include "decorate.h"

#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

using xplain::HeuristicCase;

/// Spans of one evaluator or oracle, handed to the shared log once when the
/// owner goes away, so the hot path never takes the shared lock.
class SpanBuffer {
 public:
  explicit SpanBuffer(SpanLog& log) : log_(log) {}
  ~SpanBuffer() { log_.add_all(std::move(spans_)); }
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  void add(const char* name, std::int64_t start, std::int64_t end) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.thread = thread_tag();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

 private:
  SpanLog& log_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class DecoratedEvaluator : public xplain::analyzer::GapEvaluator {
 public:
  DecoratedEvaluator(std::unique_ptr<GapEvaluator> inner, Decorator& d)
      : inner_(std::move(inner)), d_(d), buf_(d.log()) {}

  int dim() const override { return inner_->dim(); }
  xplain::analyzer::Box input_box() const override {
    return inner_->input_box();
  }
  double gap(const std::vector<double>& x) const override {
    const std::int64_t t0 = now_ns();
    const double g = inner_->gap(x);
    buf_.add("evaluator.gap", t0, now_ns());
    d_.counts().gap_calls.fetch_add(1, std::memory_order_relaxed);
    return g;
  }
  std::vector<double> quantize(const std::vector<double>& x) const override {
    return inner_->quantize(x);
  }
  std::vector<std::string> dim_names() const override {
    return inner_->dim_names();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<GapEvaluator> inner_;
  Decorator& d_;
  mutable SpanBuffer buf_;
};

class DecoratedCase : public HeuristicCase {
 public:
  DecoratedCase(std::shared_ptr<HeuristicCase> inner, Decorator& d)
      : inner_(std::move(inner)), d_(d) {}

  std::string name() const override { return inner_->name(); }
  std::string description() const override { return inner_->description(); }
  std::unique_ptr<xplain::analyzer::GapEvaluator> make_evaluator()
      const override {
    return std::make_unique<DecoratedEvaluator>(inner_->make_evaluator(), d_);
  }
  std::unique_ptr<xplain::analyzer::HeuristicAnalyzer> make_analyzer(
      std::uint64_t seed_salt) const override {
    return inner_->make_analyzer(seed_salt);
  }
  const xplain::flowgraph::FlowNetwork& network() const override {
    return inner_->network();
  }
  xplain::explain::FlowOracle make_oracle() const override {
    auto buf = std::make_shared<SpanBuffer>(d_.log());
    Decorator* d = &d_;
    return [inner = inner_->make_oracle(), buf, d](
               const std::vector<double>& x, std::vector<double>& hf,
               std::vector<double>& bf) {
      const std::int64_t t0 = now_ns();
      const bool ok = inner(x, hf, bf);
      buf->add("explain.oracle", t0, now_ns());
      d->counts().oracle_calls.fetch_add(1, std::memory_order_relaxed);
      return ok;
    };
  }
  xplain::analyzer::Box input_box() const override {
    return inner_->input_box();
  }
  std::vector<std::string> dim_names() const override {
    return inner_->dim_names();
  }
  std::map<std::string, double> features() const override {
    return inner_->features();
  }
  double gap_scale() const override { return inner_->gap_scale(); }

 private:
  std::shared_ptr<HeuristicCase> inner_;
  Decorator& d_;
};

}  // namespace

bool Decorator::decorate(xplain::CaseRegistry& reg,
                         const std::vector<std::string>& names,
                         const std::string& prefix) {
  bool ok = true;
  for (const std::string& name : names) {
    ok &= reg.add(prefix + name,
                  [this, name](const xplain::scenario::ScenarioSpec* spec)
                      -> std::shared_ptr<HeuristicCase> {
                    Span s;
                    s.name = "cases.build";
                    s.thread = thread_tag();
                    s.start = now_ns();
                    std::shared_ptr<HeuristicCase> inner =
                        spec ? xplain::registry().create(name, *spec)
                             : xplain::registry().create(name);
                    s.end = now_ns();
                    log_.add(s);
                    counts_.case_builds.fetch_add(1);
                    if (!inner) return nullptr;
                    return std::make_shared<DecoratedCase>(std::move(inner),
                                                           *this);
                  });
  }
  return ok;
}

}  // namespace perfbench
