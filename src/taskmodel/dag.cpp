#include "taskmodel/dag.h"

#include <algorithm>
#include <queue>
#include <string>

#include "common/check.h"

namespace tprm::task {

std::int64_t DagSpec::totalArea() const {
  std::int64_t area = 0;
  for (const auto& t : tasks) area += t.spec.request.area();
  return area;
}

std::vector<std::size_t> DagSpec::topologicalOrder() const {
  const std::size_t n = tasks.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> successors(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t p : tasks[i].predecessors) {
      TPRM_CHECK(p < n, "predecessor index out of range");
      successors[p].push_back(i);
      ++indegree[i];
    }
  }
  // Min-heap on index for deterministic order.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const std::size_t s : successors[v]) {
      if (--indegree[s] == 0) ready.push(s);
    }
  }
  TPRM_CHECK(order.size() == n, "dag contains a cycle");
  return order;
}

Time DagSpec::criticalPathLength() const {
  const auto order = topologicalOrder();
  std::vector<Time> finish(tasks.size(), 0);
  Time longest = 0;
  for (const std::size_t v : order) {
    Time start = 0;
    for (const std::size_t p : tasks[v].predecessors) {
      start = std::max(start, finish[p]);
    }
    finish[v] = start + tasks[v].spec.request.duration;
    longest = std::max(longest, finish[v]);
  }
  return longest;
}

std::vector<std::string> validateDag(const TunableDagJobSpec& spec) {
  std::vector<std::string> errors;
  auto fail = [&errors](const std::string& what) { errors.push_back(what); };

  if (spec.alternatives.empty()) {
    fail("dag job '" + spec.name + "' has no alternatives");
    return errors;
  }
  for (std::size_t a = 0; a < spec.alternatives.size(); ++a) {
    const DagSpec& dag = spec.alternatives[a];
    // Locations are formatted only when a check fails.
    const auto where = [&] {
      return "dag job '" + spec.name + "' alternative " + std::to_string(a) +
             " ('" + dag.name + "')";
    };
    const auto at = [&](std::size_t i) {
      return where() + " task " + std::to_string(i) + " ('" +
             dag.tasks[i].spec.name + "')";
    };
    if (dag.tasks.empty()) {
      fail(where() + " is empty");
      continue;
    }
    const std::size_t n = dag.tasks.size();
    bool structureOk = true;
    for (std::size_t i = 0; i < n; ++i) {
      const DagTask& t = dag.tasks[i];
      if (t.spec.request.processors <= 0) fail(at(i) + ": processors <= 0");
      if (t.spec.request.duration <= 0) fail(at(i) + ": duration <= 0");
      if (t.spec.quality < 0.0 || t.spec.quality > 1.0) {
        fail(at(i) + ": quality outside [0, 1]");
      }
      for (const std::size_t p : t.predecessors) {
        if (p >= n) {
          fail(at(i) + ": predecessor index out of range");
          structureOk = false;
        } else if (p == i) {
          fail(at(i) + ": task depends on itself");
          structureOk = false;
        }
      }
    }
    if (!structureOk) continue;

    // Cycle check (non-aborting variant of topologicalOrder).
    {
      std::vector<std::size_t> indegree(n, 0);
      std::vector<std::vector<std::size_t>> successors(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t p : dag.tasks[i].predecessors) {
          successors[p].push_back(i);
          ++indegree[i];
        }
      }
      std::queue<std::size_t> ready;
      for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0) ready.push(i);
      }
      std::size_t seen = 0;
      while (!ready.empty()) {
        const std::size_t v = ready.front();
        ready.pop();
        ++seen;
        for (const std::size_t s : successors[v]) {
          if (--indegree[s] == 0) ready.push(s);
        }
      }
      if (seen != n) {
        fail(where() + " contains a cycle");
        continue;
      }
    }

    // Deadline feasibility: earliest possible finish of each task (critical
    // path prefix) must meet its deadline.
    const auto order = dag.topologicalOrder();
    std::vector<Time> earliestFinish(n, 0);
    for (const std::size_t v : order) {
      Time start = 0;
      for (const std::size_t p : dag.tasks[v].predecessors) {
        start = std::max(start, earliestFinish[p]);
      }
      earliestFinish[v] = start + dag.tasks[v].spec.request.duration;
      const Time deadline = dag.tasks[v].spec.relativeDeadline;
      if (deadline < kTimeInfinity && earliestFinish[v] > deadline) {
        fail(at(v) + ": infeasible even on an idle machine (earliest finish " +
             formatTime(earliestFinish[v]) + " exceeds deadline " +
             formatTime(deadline) + ")");
      }
    }
  }
  return errors;
}

TunableDagJobSpec dagFromChains(const TunableJobSpec& chains) {
  TunableDagJobSpec dag;
  dag.name = chains.name;
  dag.qualityComposition = chains.qualityComposition;
  for (const auto& chain : chains.chains) {
    DagSpec alt;
    alt.name = chain.name;
    for (std::size_t k = 0; k < chain.tasks.size(); ++k) {
      DagTask t;
      t.spec = chain.tasks[k];
      if (k > 0) t.predecessors = {k - 1};
      alt.tasks.push_back(std::move(t));
    }
    dag.alternatives.push_back(std::move(alt));
  }
  return dag;
}

}  // namespace tprm::task
