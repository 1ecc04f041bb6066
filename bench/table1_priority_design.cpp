// Table 1 — priority distributions solved from the feasibility problem.
//
// Paper setting (Sec. 5.3): 500 source blocks in three levels of 50, 100
// and 350; three sets of decoding constraints (M_i, k_i); plus the
// full-recovery constraint Pr(X_{2N} = 3) > 0.99; PLC coding. The paper
// feeds this to MATLAB and reports the first feasible point found. Any
// feasible point is a valid solution, so we (a) run our own solver and
// report its distributions with the achieved constraint values, and (b)
// verify the paper's published Table-1 distributions against our exact
// analysis.
#include <iostream>

#include "bench_common.h"
#include "design/feasibility.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

struct Case {
  const char* name;
  std::vector<design::DecodingConstraint> constraints;
  std::vector<double> paper_distribution;
};

const Case kCases[] = {
    {"Case 1", {{130, 1.0}, {950, 2.0}}, {0.5138, 0.0768, 0.4094}},
    {"Case 2", {{265, 1.0}, {287, 2.0}}, {0.0, 0.6149, 0.3851}},
    {"Case 3", {{240, 1.0}, {450, 2.0}}, {0.2894, 0.3246, 0.3860}},
};

std::string constraint_string(const std::vector<design::DecodingConstraint>& cs) {
  std::string out;
  for (const auto& c : cs) {
    out += "(" + std::to_string(c.coded_blocks) + ", " + fmt_double(c.min_levels, 0) + ") ";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject, {});
  bench::banner("Table 1 — feasible priority distributions (PLC)",
                "N = 500 blocks in levels {50, 100, 350}; alpha = 2, eps = 0.01.");

  design::FeasibilityProblem base;
  base.scheme = codes::Scheme::kPlc;
  base.spec = codes::PrioritySpec({50, 100, 350});
  base.full_recovery = design::FullRecoveryConstraint{2.0, 0.01};

  design::FeasibilityOptions opt;
  if (bench::fast_mode()) {
    opt.max_evaluations_per_start = 150;
    opt.restarts = 2;
  }

  TablePrinter solved({"case", "constraints", "feasible", "p1", "p2", "p3",
                       "E[X_M1]", "E[X_M2]", "Pr[X_2N=3]", "evals"});
  TablePrinter verify({"case", "paper p1", "paper p2", "paper p3", "E[X_M1]", "E[X_M2]",
                       "Pr[X_2N=3]", "satisfies (9)?", "satisfies (10)?"});

  for (const auto& c : kCases) {
    design::FeasibilityProblem problem = base;
    problem.decoding = c.constraints;

    const auto result = design::solve_feasibility(problem, opt);
    solved.add_row({c.name, constraint_string(c.constraints),
                    result.feasible ? "yes" : "NO", fmt_double(result.distribution[0], 4),
                    fmt_double(result.distribution[1], 4),
                    fmt_double(result.distribution[2], 4),
                    fmt_double(result.report.achieved_levels[0], 3),
                    fmt_double(result.report.achieved_levels[1], 3),
                    fmt_double(result.report.achieved_full_recovery.value_or(-1), 4),
                    std::to_string(result.evaluations)});

    const auto paper = design::evaluate_constraints(problem, c.paper_distribution);
    const bool ok9 = paper.achieved_levels[0] + 5e-3 >= c.constraints[0].min_levels &&
                     paper.achieved_levels[1] + 5e-3 >= c.constraints[1].min_levels;
    const bool ok10 = paper.achieved_full_recovery.value_or(0) + 5e-3 >= 0.99;
    verify.add_row({c.name, fmt_double(c.paper_distribution[0], 4),
                    fmt_double(c.paper_distribution[1], 4),
                    fmt_double(c.paper_distribution[2], 4),
                    fmt_double(paper.achieved_levels[0], 3),
                    fmt_double(paper.achieved_levels[1], 3),
                    fmt_double(paper.achieved_full_recovery.value_or(-1), 4),
                    ok9 ? "yes" : "NO", ok10 ? "yes" : "NO"});
  }

  std::cout << "\nOur solver's feasible distributions (first feasible point from the\n"
               "uniform start, like the paper's MATLAB run):\n";
  solved.emit("table1_solved");
  std::cout << "\nVerification of the paper's published distributions under our exact\n"
               "Theorem-1 analysis:\n";
  verify.emit("table1_paper_verified");
  std::cout << "\nExpected shape: all three cases are feasible; the paper's published\n"
               "rows satisfy (or come within numerical tolerance of) their own\n"
               "constraints under the exact analysis.\n";
  bench::finalize(nullptr);
  return 0;
}
