// Figure 4 reproduction — deployment measurement (§5.5).
//
// One instrumented peer logs the BarterCast messages of ~5000 peers for a
// month (synthetic population, see DESIGN.md §2) and reports:
// (a) per-peer upload minus download, sorted — the paper shows a majority
//     of net downloaders, a mass at exactly zero (fresh installs) and a few
//     multi-gigabyte altruists;
// (b) the CDF of the reputations of those peers as computed by the
//     observer — about 40% negative, ~50% around zero, ~10% positive.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <filesystem>

#include "analysis/deployment_observer.hpp"
#include "analysis/plot.hpp"
#include "figure_common.hpp"
#include "trace/deployment.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

using namespace bc;

int main() {
  bench::print_header("Figure 4", "one-month deployment observation");

  trace::DeploymentConfig dcfg;
  dcfg.seed = 44;
  dcfg.num_peers = bench::quick_mode() ? 1000 : 5000;
  const auto population = trace::generate_deployment(dcfg);

  analysis::ObserverConfig ocfg;
  ocfg.seed = 45;
  const auto result = analysis::run_observer(population, ocfg);

  // (a) sorted net contribution, sampled at percentiles for the table.
  std::vector<Bytes> sorted = result.net_contribution;
  std::sort(sorted.begin(), sorted.end());
  std::printf("\n(a) upload - download, sorted (percentile samples):\n");
  Table ta({"percentile", "net_contribution"});
  for (int pct : {0, 5, 10, 25, 40, 50, 60, 75, 90, 95, 99, 100}) {
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(static_cast<double>(pct) / 100.0 *
                                 static_cast<double>(sorted.size() - 1)));
    ta.add_row({std::to_string(pct),
                fmt_bytes(sorted[static_cast<std::size_t>(idx)])});
  }
  std::printf("%s", ta.to_string().c_str());

  BC_ASSERT(!sorted.empty());
  const auto net_down = static_cast<double>(std::count_if(
                            sorted.begin(), sorted.end(),
                            [](Bytes b) { return b < 0; })) /
                        static_cast<double>(sorted.size());
  const auto net_up = static_cast<double>(std::count_if(
                          sorted.begin(), sorted.end(),
                          [](Bytes b) { return b > 0; })) /
                      static_cast<double>(sorted.size());
  std::printf("net downloaders: %.0f%%  net uploaders: %.0f%%  "
              "exactly zero: %.0f%%\n",
              100.0 * net_down, 100.0 * net_up,
              100.0 * (1.0 - net_down - net_up));

  // (b) reputation CDF at the observer.
  std::printf("\n(b) reputation CDF at the observer:\n");
  const auto cdf = result.reputation_cdf();
  Table tb({"reputation", "cdf"});
  for (double x : {-1.0, -0.75, -0.5, -0.25, -0.1, -0.01, 0.0, 0.01, 0.1,
                   0.25, 0.5, 0.75, 1.0}) {
    tb.add_row({fmt(x, 2), fmt(cdf_at(cdf, x), 3)});
  }
  std::printf("%s", tb.to_string().c_str());
  std::printf("fractions: negative %.0f%%, ~zero %.0f%%, positive %.0f%% "
              "(paper: ~40%% / ~50%% / ~10%%)\n",
              100.0 * result.fraction_negative(),
              100.0 * result.fraction_zero(),
              100.0 * result.fraction_positive());
  std::printf("messages logged: %zu, records applied: %zu\n",
              result.messages_logged, result.records_applied);

  const std::string plots = bench::plot_dir();
  std::filesystem::create_directories(plots);
  (void)analysis::write_cdf_plot(cdf, plots, "fig4b",
                                 "reputation at the observer");

  // Shape checks against the published distribution.
  const bool ok = result.fraction_negative() > result.fraction_positive() &&
                  net_down > net_up && result.fraction_zero() > 0.2;
  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
