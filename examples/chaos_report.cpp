// Degraded-campaign walkthrough: runs the whole measurement pipeline under
// a FaultPlan (REPRO_FAULT env settings when present, FaultPlan::chaos()
// otherwise), prints each stage's health verdict, and compares the headline
// results against a clean run of the same scenario -- the "what do the
// paper's filters actually buy us" demo.
//
// Tracing is on by default (REPRO_TRACE=0 to silence): the run writes
// run_report.json with a populated "fault" section.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/analyses.h"
#include "fault/fault_plan.h"
#include "fault/stage_health.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace repro;

  if (std::getenv("REPRO_TRACE") == nullptr) obs::set_tracing(true);

  Scenario scenario = Scenario::paper();
  if (const char* scale = std::getenv("REPRO_SCALE")) {
    if (const auto parsed = parse_scale(scale); parsed.has_value()) {
      scenario = Scenario::at_scale(*parsed);
    } else {
      std::fprintf(stderr, "unknown REPRO_SCALE '%s', using paper\n", scale);
    }
  }

  fault::FaultPlan plan = fault::FaultPlan::from_env();
  if (!plan.active()) plan = fault::FaultPlan::chaos();
  std::printf("fault plan: %s\n\n", plan.to_json().c_str());

  std::printf("--- clean run ---\n");
  Pipeline clean(scenario);
  const auto clean_t1 = table1_study(clean);
  const auto clean_f1 = figure1_study(clean);

  std::printf("--- degraded run ---\n");
  Pipeline chaos(scenario, plan);
  const auto chaos_t1 = table1_study(chaos);
  const auto chaos_f1 = figure1_study(chaos);
  chaos.ping_mesh();  // make sure the campaign stage reports health too

  std::printf("\nStage health (degraded run):\n");
  TextTable health_table({"stage", "status", "dropped", "total", "reasons"});
  for (const auto& [stage, health] : chaos.stage_health()) {
    std::string reasons;
    for (const auto& reason : health.reasons) {
      if (!reasons.empty()) reasons += "; ";
      reasons += reason;
    }
    health_table.add_row({stage, std::string(to_string(health.status)),
                          std::to_string(health.dropped),
                          std::to_string(health.total), reasons});
  }
  std::printf("%s\n", health_table.render().c_str());
  std::printf("overall: %s\n\n",
              std::string(to_string(chaos.overall_status())).c_str());

  TextTable drift({"result", "clean", "degraded"});
  drift.set_align(1, Align::kRight);
  drift.set_align(2, Align::kRight);
  drift.add_row({"Table 1: hosting ISPs (2023)",
                 with_commas((long long)clean_t1.total_hosting_isps_2023),
                 with_commas((long long)chaos_t1.total_hosting_isps_2023)});
  drift.add_row({"Table 1: offnet IPs (2023)",
                 with_commas((long long)clean_t1.total_offnet_ips_2023),
                 with_commas((long long)chaos_t1.total_offnet_ips_2023)});
  for (std::size_t i = 0; i < clean_t1.rows.size(); ++i) {
    drift.add_row({"  " + std::string(to_string(clean_t1.rows[i].hg)) +
                       " ISPs (2023)",
                   with_commas((long long)clean_t1.rows[i].isps_2023),
                   with_commas((long long)chaos_t1.rows[i].isps_2023)});
  }
  drift.add_row({"Figure 1: ISPs hosting >= 2 HGs",
                 with_commas((long long)clean_f1.isps_ge2),
                 with_commas((long long)chaos_f1.isps_ge2)});
  std::printf("Headline drift:\n%s\n", drift.render().c_str());

  if (obs::tracing_enabled() && obs::maybe_write_run_report()) {
    std::printf("wrote %s (see its \"fault\" section)\n",
                obs::default_report_path().c_str());
  }
  return 0;
}
