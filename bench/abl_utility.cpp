// Ablation — strict-priority feasibility design vs utility maximization
// (the paper's stated open problem, Sec. 2).
//
// Same data, two design philosophies:
//  * feasibility (Sec. 3.4): hard constraints "M_i blocks must decode k_i
//    levels in expectation";
//  * expected-utility: marginal utilities per level, a probability mix of
//    survival scenarios, maximize E[U].
// Expected shape: when the utility is steep (critical tier worth 10x),
// the utility optimum shifts storage toward level 1 relative to both the
// uniform and the feasibility solutions, and wins on E[U] by
// construction; with flat utilities the two designs roughly agree.
#include <iostream>

#include "bench_common.h"
#include "design/feasibility.h"
#include "design/utility_optimizer.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

std::string dist_string(const std::vector<double>& p) {
  std::string out = "(";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out += ", ";
    out += fmt_double(p[i], 3);
  }
  return out + ")";
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject, {});
  bench::banner("Ablation — feasibility vs utility-based design",
                "N = 200 in levels {20, 60, 120}; scenarios 60/150/400 survivors.");

  const codes::PrioritySpec spec({20, 60, 120});
  const std::vector<design::SurvivalScenario> scenarios = {
      {60, 0.2}, {150, 0.4}, {400, 0.4}};

  // Baseline 1: uniform distribution.
  const std::vector<double> uniform = {1.0 / 3, 1.0 / 3, 1.0 / 3};

  // Baseline 2: feasibility design with matching hard constraints.
  design::FeasibilityProblem fp;
  fp.scheme = codes::Scheme::kPlc;
  fp.spec = spec;
  fp.decoding = {{60, 0.7}, {150, 1.0}};
  fp.full_recovery = design::FullRecoveryConstraint{2.0, 0.1};
  design::FeasibilityOptions fopt;
  if (bench::fast_mode()) {
    fopt.max_evaluations_per_start = 120;
    fopt.restarts = 2;
  }
  const auto feas = design::solve_feasibility(fp, fopt);

  TablePrinter table({"utility profile", "design", "distribution", "E[U]"});
  for (const auto& [name, utilities] :
       std::vector<std::pair<std::string, std::vector<double>>>{
           {"steep (10/3/1)", {10.0, 3.0, 1.0}},
           {"flat (1/1/1)", {1.0, 1.0, 1.0}}}) {
    design::UtilityProblem up;
    up.scheme = codes::Scheme::kPlc;
    up.spec = spec;
    up.marginal_utility = utilities;
    up.scenarios = scenarios;
    design::UtilityOptions uopt;
    if (bench::fast_mode()) {
      uopt.max_evaluations_per_start = 120;
      uopt.restarts = 1;
    }
    const auto opt = design::maximize_utility(up, uopt);
    table.add_row({name, "uniform", dist_string(uniform),
                   fmt_double(design::expected_utility(up, uniform), 3)});
    table.add_row({name, "feasibility", dist_string(feas.distribution),
                   fmt_double(design::expected_utility(up, feas.distribution), 3)});
    table.add_row({name, "utility-optimal", dist_string(opt.distribution),
                   fmt_double(opt.expected_utility, 3)});
  }
  table.emit("abl_utility");
  std::cout << "\n(feasibility design solved " << (feas.feasible ? "feasibly" : "INFEASIBLY")
            << " in " << feas.evaluations << " evaluations)\n"
            << "\nExpected shape: the utility-optimal rows dominate their column by\n"
               "construction; steep utilities pull p1 up, flat utilities favour the\n"
               "deep levels that unlock everything under generous scenarios.\n";
  bench::finalize(nullptr);
  return 0;
}
