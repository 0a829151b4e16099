// Shows that each correctness gate of the benchmark rejects a violation
// and accepts the conforming case. Exit code 0 when every check holds.
//
//   perfbench_gates_test
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gates.h"

namespace {

int g_failed = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failed;
}

eep::release::ReleasedTable Table() {
  eep::release::ReleasedTable t;
  t.header = {"place", "sex", "count"};
  t.rows = {{"1", "F", "9"}, {"1", "M", "10"}, {"2", "F", "10"},
            {"2", "M", "3"}};
  return t;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Top-k is numeric (10 above 9), ties by attribute tuple ascending.
  const auto top = ExpectedTopK(Table(), 3);
  using Attrs = std::vector<std::string>;
  Expect(top.size() == 3 && top[0].attrs == Attrs{"1", "M"} &&
             top[1].attrs == Attrs{"2", "F"} &&
             top[2].count == "9",
         "ExpectedTopK ranks numerically with attribute tie-break");
  Expect(ExpectedTopK(Table(), 10).size() == 4,
         "ExpectedTopK returns every row when k exceeds the table");

  auto epoch1 = MakeRelease(1, {Table()});
  auto table2 = Table();
  table2.rows[0].back() = "11";
  auto epoch2 = MakeRelease(2, {table2});

  Expect(LookupInWindow({epoch1}, 0, 0, "9"),
         "answer gate accepts the released value");
  Expect(!LookupInWindow({epoch1}, 0, 0, "10"),
         "answer gate rejects a wrong value");
  Expect(!LookupInWindow({epoch1}, 0, 7, "9"),
         "answer gate rejects a cell outside the table");
  Expect(LookupInWindow({epoch1, epoch2}, 0, 0, "11"),
         "window gate accepts a value of any epoch in the window");
  Expect(!LookupInWindow({epoch2}, 0, 0, "9"),
         "window gate rejects a value of an epoch outside the window");
  Expect(TopKInWindow({epoch1}, 0, epoch1->topk[0]),
         "TopK gate accepts the expected ranking");
  Expect(!TopKInWindow({epoch1}, 0, epoch2->topk[0]),
         "TopK gate rejects another epoch's ranking");

  eep::serve::ServiceStats stats;
  stats.admitted = 10;
  stats.shed = 2;
  stats.expired_at_admission = 1;
  stats.completed = 9;
  stats.expired_in_queue = 1;
  stats.snapshot_pins = 9;
  Expect(CheckReconciled(stats, 13).empty(),
         "reconcile gate accepts consistent counters");
  Expect(!CheckReconciled(stats, 14).empty(),
         "reconcile gate rejects a request the service lost");
  auto bad = stats;
  bad.completed = 8;
  bad.snapshot_pins = 8;
  Expect(!CheckReconciled(bad, 13).empty(),
         "reconcile gate rejects admitted work with no outcome");
  bad = stats;
  bad.snapshot_pins = 10;
  Expect(!CheckReconciled(bad, 13).empty(),
         "reconcile gate rejects snapshot work for a refused request");

  EpochWindow window;
  window.Publish(epoch1);
  window.Publish(epoch2);
  Expect(window.Get(2, 0) == epoch2, "window returns a published epoch");
  window.DropBefore(2);
  Expect(window.size() == 1 && window.Get(1, 0) == nullptr,
         "window forgets epochs no reader can see");
  Expect(window.Get(3, 10) == nullptr,
         "window times out on an epoch never published");

  Gates gates;
  Expect(gates.ok(), "a run with no failed gate is correct");
  gates.Fail("answer", "first");
  gates.Fail("answer", "second");
  const auto failures = gates.Failures();
  Expect(!gates.ok() && failures.size() == 1 &&
             failures[0] == "answer (2): first",
         "a failed gate makes the run incorrect and keeps its first detail");

  std::printf("%s\n", g_failed == 0 ? "all gate checks passed"
                                    : "GATE CHECKS FAILED");
  return g_failed == 0 ? 0 : 1;
}
