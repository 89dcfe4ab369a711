#include "core/step_dag.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace griphon::core {

StepDag::StepDag(const StepList& steps) {
  deps_.resize(steps.size());
  dependents_.resize(steps.size());
  // Explicit builder edges plus implicit per-element serialization: each
  // command depends on the previous command addressed to the same managed
  // element, so same-device order never depends on queue arrival.
  std::map<std::uint64_t, std::size_t> last_on_element;
  std::vector<std::size_t> deps;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    deps.assign(steps[i].deps.begin(), steps[i].deps.end());
    const auto [last, first_on_element] =
        last_on_element.try_emplace(proto::element_key(steps[i].forward), i);
    if (!first_on_element) {
      deps.push_back(last->second);
      last->second = i;
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    for (const std::size_t d : deps) {
      // Edges only point backwards in list order; self-edges would
      // deadlock, so both are dropped defensively.
      if (d >= i) continue;
      deps_[i].push_back(d);
      dependents_[d].push_back(i);
    }
  }
}

StepDag StepDag::chain(std::size_t n) {
  StepDag dag;
  dag.deps_.resize(n);
  dag.dependents_.resize(n);
  for (std::size_t i = 1; i < n; ++i) {
    dag.deps_[i].push_back(i - 1);
    dag.dependents_[i - 1].push_back(i);
  }
  return dag;
}

StepList build_undo_steps(const StepList& steps,
                          const std::vector<std::size_t>& succeeded) {
  const StepDag dag(steps);
  std::vector<std::size_t> order = succeeded;
  std::sort(order.begin(), order.end());
  std::set<std::size_t> ok(order.begin(), order.end());

  // Undo list in reverse completion order; remember where each forward
  // step's undo landed.
  StepList undo;
  std::map<std::size_t, std::size_t> undo_index;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Step& s = steps[*it];
    if (!s.undo) continue;
    undo_index[*it] = undo.size();
    undo.push_back(Step{s.client, *s.undo, std::nullopt, {}});
  }

  // Reverse edges: forward "i before j" becomes "undo(j) before undo(i)".
  // Succeeded steps without an undo are pass-throughs — their dependents'
  // undos still gate the undos of their dependencies.
  for (const std::size_t i : order) {
    const auto ui = undo_index.find(i);
    if (ui == undo_index.end()) continue;
    std::set<std::size_t> blockers;
    std::set<std::size_t> visited;
    std::vector<std::size_t> frontier(dag.dependents_of(i).begin(),
                                      dag.dependents_of(i).end());
    while (!frontier.empty()) {
      const std::size_t j = frontier.back();
      frontier.pop_back();
      if (!visited.insert(j).second) continue;
      if (!ok.contains(j)) continue;  // never ran; nothing to wait for
      if (const auto uj = undo_index.find(j); uj != undo_index.end()) {
        blockers.insert(uj->second);
      } else {
        frontier.insert(frontier.end(), dag.dependents_of(j).begin(),
                        dag.dependents_of(j).end());
      }
    }
    undo[ui->second].deps.assign(blockers.begin(), blockers.end());
  }
  return undo;
}

// --------------------------------------------------------------------------
// DagScheduler
// --------------------------------------------------------------------------

DagScheduler::DagScheduler(const StepDag* dag,
                           std::vector<std::string> domains,
                           std::size_t domain_window)
    : dag_(dag), domains_(std::move(domains)),
      window_(domain_window == 0 ? 1 : domain_window),
      indegree_(dag->size(), 0), issued_(dag->size(), false),
      completed_(dag->size(), false) {
  for (std::size_t i = 0; i < dag_->size(); ++i)
    indegree_[i] = dag_->deps_of(i).size();
  for (std::size_t i = 0; i < dag_->size(); ++i)
    if (indegree_[i] == 0) ready_[domains_[i]].push_back(i);
}

std::optional<std::size_t> DagScheduler::acquire() {
  for (auto& [domain, queue] : ready_) {
    if (queue.empty() || in_flight_[domain] >= window_) continue;
    const std::size_t i = queue.front();
    queue.pop_front();
    issued_[i] = true;
    ++in_flight_[domain];
    ++in_flight_total_;
    return i;
  }
  return std::nullopt;
}

std::vector<std::size_t> DagScheduler::drain_ready(
    const std::string& domain,
    const std::function<bool(std::size_t)>& pred) {
  std::vector<std::size_t> taken;
  const auto it = ready_.find(domain);
  if (it == ready_.end()) return taken;
  std::deque<std::size_t> keep;
  for (const std::size_t i : it->second) {
    if (pred(i)) {
      issued_[i] = true;
      taken.push_back(i);
    } else {
      keep.push_back(i);
    }
  }
  it->second = std::move(keep);
  return taken;
}

void DagScheduler::release(std::size_t i) {
  if (completed_[i]) return;
  completed_[i] = true;
  for (const std::size_t j : dag_->dependents_of(i)) {
    if (indegree_[j] == 0) continue;  // defensive; graph edges are unique
    if (--indegree_[j] == 0 && !aborted_) {
      // Keep each ready queue sorted so dispatch is lowest-index first.
      auto& queue = ready_[domains_[j]];
      queue.insert(std::lower_bound(queue.begin(), queue.end(), j), j);
    }
  }
}

void DagScheduler::slot_done(std::size_t i) {
  auto& count = in_flight_[domains_[i]];
  if (count > 0) --count;
  if (in_flight_total_ > 0) --in_flight_total_;
}

void DagScheduler::abort() {
  aborted_ = true;
  ready_.clear();
}

bool DagScheduler::finished() const {
  if (!idle()) return false;
  if (aborted_) return true;
  for (const auto& [domain, queue] : ready_)
    if (!queue.empty()) return false;
  return true;
}

std::size_t DagScheduler::stuck() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < issued_.size(); ++i)
    if (!issued_[i] && indegree_[i] > 0) ++n;
  return n;
}

// --------------------------------------------------------------------------
// Report
// --------------------------------------------------------------------------

void mark_critical_path(StepDagReport& report) {
  for (auto& s : report.steps) s.critical = false;
  if (report.steps.empty()) return;
  // Tail of the chain: the step that finished last.
  std::size_t at = report.steps.size();
  double best_end = -1.0;
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    if (report.steps[i].end_s > best_end) {
      best_end = report.steps[i].end_s;
      at = i;
    }
  }
  if (at == report.steps.size() || best_end < 0.0) return;
  // Walk back through whichever dependency completed last — the edge that
  // actually gated each step.
  while (true) {
    report.steps[at].critical = true;
    std::size_t pred = report.steps.size();
    double pred_end = -1.0;
    for (const std::size_t d : report.steps[at].deps) {
      if (d >= report.steps.size()) continue;
      if (report.steps[d].end_s > pred_end) {
        pred_end = report.steps[d].end_s;
        pred = d;
      }
    }
    if (pred == report.steps.size()) break;
    at = pred;
  }
}

std::string render_dag(const StepDagReport& report) {
  std::ostringstream out;
  out << "step DAG: " << report.steps.size() << " steps, "
      << report.total_s << " s critical-path makespan ('*' = critical path, "
      << "'B' = batched dialogue)\n";
  constexpr int kBarWidth = 32;
  const double scale =
      report.total_s > 0.0 ? kBarWidth / report.total_s : 0.0;
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const DagStepRecord& s = report.steps[i];
    out << (s.critical ? '*' : ' ') << (s.batched ? 'B' : ' ');
    char idx[24];  // "%3zu " of any size_t, plus the terminator
    std::snprintf(idx, sizeof idx, "%3zu ", i);
    out << idx;
    // Timeline bar: offset + extent in run time.
    std::string bar(kBarWidth, '.');
    if (s.end_s >= 0.0 && s.start_s >= 0.0) {
      const int from = std::min(kBarWidth - 1,
                                static_cast<int>(s.start_s * scale));
      const int to = std::min(kBarWidth - 1,
                              static_cast<int>(s.end_s * scale));
      for (int b = from; b <= to; ++b) bar[static_cast<std::size_t>(b)] = '#';
    }
    out << '[' << bar << "] ";
    char timing[64];
    if (s.end_s >= 0.0)
      std::snprintf(timing, sizeof timing, "%7.2f -> %7.2f  %-18s",
                    s.start_s, s.end_s, s.name.c_str());
    else
      std::snprintf(timing, sizeof timing, "%7s    %7s  %-18s", "-", "-",
                    s.name.c_str());
    out << timing << ' ' << s.domain;
    if (!s.deps.empty()) {
      out << "  deps:";
      for (const std::size_t d : s.deps) out << ' ' << d;
    }
    if (s.end_s >= 0.0 && !s.ok) out << "  FAILED";
    out << '\n';
  }
  return out.str();
}

}  // namespace griphon::core
