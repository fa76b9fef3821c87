#include "core/analyses.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/strings.h"
#include "util/table.h"

namespace repro {

namespace {

std::string pct(double fraction, int decimals = 1) {
  return format_percent(fraction, decimals);
}

}  // namespace

// ----------------------------------------------------------- Table 1 ------

Table1Study table1_study(const Pipeline& pipeline) {
  Table1Study study;
  const DiscoveryReport& report_2021 =
      pipeline.discovery(Snapshot::k2021, Methodology::k2021);
  const DiscoveryReport& report_2023 =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);
  const DiscoveryReport& report_2023_old =
      pipeline.discovery(Snapshot::k2023, Methodology::k2021);

  for (const Hypergiant hg : all_hypergiants()) {
    Table1Row row;
    row.hg = hg;
    row.isps_2021 = report_2021.footprint(hg).isp_count();
    row.isps_2023 = report_2023.footprint(hg).isp_count();
    row.isps_2023_old_method = report_2023_old.footprint(hg).isp_count();
    study.rows.push_back(row);
  }
  study.total_offnet_ips_2023 = report_2023.total_offnet_ips();
  study.total_hosting_isps_2023 = report_2023.isps_hosting_at_least(1).size();
  return study;
}

std::string render(const Table1Study& study) {
  TextTable table({"Hypergiant", "ISPs 2021", "ISPs 2023", "growth",
                   "2023 w/ 2021 method"});
  for (const Table1Row& row : study.rows) {
    table.add_row({std::string(to_string(row.hg)),
                   with_commas(static_cast<long long>(row.isps_2021)),
                   with_commas(static_cast<long long>(row.isps_2023)),
                   (row.growth_percent() >= 0 ? "+" : "") +
                       format_fixed(row.growth_percent(), 1) + "%",
                   with_commas(static_cast<long long>(row.isps_2023_old_method))});
  }
  std::string out = "Table 1: # of ISPs hosting offnets, 2021 vs 2023\n";
  out += table.render();
  out += "\nTotals (2023 snapshot): " +
         with_commas(static_cast<long long>(study.total_offnet_ips_2023)) +
         " offnet IPs across " +
         with_commas(static_cast<long long>(study.total_hosting_isps_2023)) +
         " ISPs\n";
  out +=
      "(last column: the outdated 2021 fingerprints miss Google entirely and\n"
      " most of Meta in the 2023 snapshot -- the paper's methodology update)\n";
  return out;
}

// ---------------------------------------------------------- Figure 1 ------

Figure1Study figure1_study(const Pipeline& pipeline) {
  Figure1Study study;
  const DiscoveryReport& report =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);
  const Internet& net = pipeline.internet();

  study.isps_ge1 = report.isps_hosting_at_least(1).size();
  study.isps_ge2 = report.isps_hosting_at_least(2).size();
  study.isps_ge3 = report.isps_hosting_at_least(3).size();
  study.isps_eq4 = report.isps_hosting_at_least(4).size();

  struct Accumulator {
    double users = 0.0;
    double users_ge2 = 0.0;
    double users_ge3 = 0.0;
    double users_eq4 = 0.0;
  };
  std::vector<Accumulator> per_country(all_countries().size());
  for (const AsIndex isp : net.access_isps()) {
    const As& as = net.ases[isp];
    auto& acc = per_country[as.country];
    acc.users += as.users;
    const int hosted = report.hypergiants_at(isp);
    if (hosted >= 2) acc.users_ge2 += as.users;
    if (hosted >= 3) acc.users_ge3 += as.users;
    if (hosted >= 4) acc.users_eq4 += as.users;
  }
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const auto& acc = per_country[ci];
    if (acc.users <= 0.0) continue;
    CountryHostingRow row;
    row.code = std::string(all_countries()[ci].code);
    row.name = std::string(all_countries()[ci].name);
    row.users_m = acc.users / 1e6;
    row.frac_ge2 = acc.users_ge2 / acc.users;
    row.frac_ge3 = acc.users_ge3 / acc.users;
    row.frac_eq4 = acc.users_eq4 / acc.users;
    study.countries.push_back(std::move(row));
  }
  std::sort(study.countries.begin(), study.countries.end(),
            [](const CountryHostingRow& a, const CountryHostingRow& b) {
              return a.users_m > b.users_m;
            });
  return study;
}

std::string render(const Figure1Study& study, std::size_t max_countries) {
  std::string out =
      "Figure 1: per-country Internet user population in ISPs hosting offnets\n"
      "from multiple of Akamai, Google, Netflix, Meta (2023 snapshot)\n\n";
  out += "ISPs hosting >=1 hypergiant: " + with_commas((long long)study.isps_ge1) +
         ", >=2: " + with_commas((long long)study.isps_ge2) +
         ", >=3: " + with_commas((long long)study.isps_ge3) +
         ", all 4: " + with_commas((long long)study.isps_eq4) + "\n\n";
  TextTable table({"Country", "users (M)", ">=2 HGs", ">=3 HGs", "all 4"});
  std::size_t shown = 0;
  for (const CountryHostingRow& row : study.countries) {
    if (shown++ >= max_countries) break;
    table.add_row({row.code + " " + row.name, format_fixed(row.users_m, 1),
                   pct(row.frac_ge2), pct(row.frac_ge3), pct(row.frac_eq4)});
  }
  out += table.render();
  return out;
}

// ----------------------------------------------------------- Table 2 ------

Table2Study table2_study(const Pipeline& pipeline, std::span<const double> xis) {
  Table2Study study;
  const DiscoveryReport& report =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);

  for (const Hypergiant hg : all_hypergiants()) {
    for (const double xi : xis) {
      Table2Row row;
      row.hg = hg;
      row.xi = xi;
      std::size_t sole = 0;
      std::size_t bucket[4] = {0, 0, 0, 0};
      for (const auto& [isp, ips] : report.footprint(hg).by_isp) {
        (void)ips;
        const IspClustering* clustering = pipeline.clustering_of(xi, isp);
        if (clustering == nullptr || !clustering->usable) continue;
        const HgColocation colocation = colocation_of(*clustering, registry, hg);
        if (colocation.total_ips == 0) continue;
        ++row.isp_count;
        if (report.hypergiants_at(isp) <= 1) {
          ++sole;
          continue;
        }
        const double fraction = colocation.fraction();
        if (fraction <= 0.0) ++bucket[0];
        else if (fraction < 0.5) ++bucket[1];
        else if (fraction < 1.0) ++bucket[2];
        else ++bucket[3];
      }
      if (row.isp_count > 0) {
        const double denom = static_cast<double>(row.isp_count);
        row.sole_pct = 100.0 * sole / denom;
        row.coloc_0_pct = 100.0 * bucket[0] / denom;
        row.coloc_mid_low_pct = 100.0 * bucket[1] / denom;
        row.coloc_mid_high_pct = 100.0 * bucket[2] / denom;
        row.coloc_full_pct = 100.0 * bucket[3] / denom;
      }
      study.rows.push_back(row);
    }
  }
  return study;
}

std::string render(const Table2Study& study) {
  std::string out =
      "Table 2: % of ISPs hosting each hypergiant, bucketed by the share of\n"
      "its offnets colocated with another hypergiant's offnets\n";
  TextTable table({"Hypergiant", "xi", "sole HG", "0%", "(0,50)%", "[50,100)%",
                   "100%", "#ISPs"});
  for (const Table2Row& row : study.rows) {
    table.add_row({std::string(to_string(row.hg)), format_fixed(row.xi, 1),
                   format_fixed(row.sole_pct, 0) + "%",
                   format_fixed(row.coloc_0_pct, 0) + "%",
                   format_fixed(row.coloc_mid_low_pct, 0) + "%",
                   format_fixed(row.coloc_mid_high_pct, 0) + "%",
                   format_fixed(row.coloc_full_pct, 0) + "%",
                   with_commas((long long)row.isp_count)});
  }
  out += table.render();
  return out;
}

// ---------------------------------------------------------- Figure 2 ------

double best_facility_fraction(const IspClustering& clustering,
                              const OffnetRegistry& registry) {
  if (!clustering.usable || clustering.registry_indices.empty()) return 0.0;
  std::map<int, std::set<Hypergiant>> by_cluster;
  double best = 0.0;
  for (std::size_t i = 0; i < clustering.registry_indices.size(); ++i) {
    const Hypergiant hg =
        registry.servers()[clustering.registry_indices[i]].hg;
    const int label = clustering.labels[i];
    if (label < 0) {
      // A lone (noise) IP is still a facility serving its hypergiant.
      best = std::max(best, offnet_serveable_traffic_fraction(hg));
    } else {
      by_cluster[label].insert(hg);
    }
  }
  for (const auto& [label, hgs] : by_cluster) {
    (void)label;
    double total = 0.0;
    for (const Hypergiant hg : hgs) total += offnet_serveable_traffic_fraction(hg);
    best = std::max(best, total);
  }
  return best;
}

Figure2Study figure2_study(const Pipeline& pipeline, std::span<const double> xis) {
  Figure2Study study;
  const Internet& net = pipeline.internet();
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  const double total_users = net.total_access_users();

  double hosting_users = 0.0;
  for (const AsIndex isp : pipeline.hosting_isps_2023()) {
    hosting_users += net.ases[isp].users;
  }
  study.users_in_offnet_isps = hosting_users / total_users;

  for (const double xi : xis) {
    Figure2Series series;
    series.xi = xi;
    std::vector<double> fractions;
    std::vector<double> weights;
    double analyzable_users = 0.0;
    double users_ge_quarter = 0.0;
    double users_all_four = 0.0;
    for (const AsIndex isp : pipeline.hosting_isps_2023()) {
      const IspClustering* clustering = pipeline.clustering_of(xi, isp);
      if (clustering == nullptr || !clustering->usable) continue;
      const double users = net.ases[isp].users;
      analyzable_users += users;
      const double fraction = best_facility_fraction(*clustering, registry);
      fractions.push_back(fraction);
      weights.push_back(users);
      if (fraction >= 0.25) users_ge_quarter += users;
      // "All four": the best cluster contains every hypergiant. The sum of
      // all four serveable fractions is ~0.52; use a threshold just below.
      if (fraction >= 0.50) users_all_four += users;
    }
    series.ccdf = weighted_ccdf(fractions, weights);
    if (analyzable_users > 0.0) {
      series.users_frac_ge_quarter = users_ge_quarter / analyzable_users;
      series.users_frac_all_four = users_all_four / analyzable_users;
    }
    study.users_analyzable = analyzable_users / total_users;
    study.series.push_back(std::move(series));
  }
  return study;
}

std::string render(const Figure2Study& study) {
  std::string out =
      "Figure 2: CCDF (over users in analyzable ISPs) of the estimated\n"
      "fraction of a user's traffic serveable from one facility\n\n";
  out += "Users in ISPs with offnets: " + pct(study.users_in_offnet_isps) +
         " of all users; analyzable: " + pct(study.users_analyzable) + "\n\n";
  TextTable table({"fraction x", "CCDF (xi=" +
                                     format_fixed(study.series.front().xi, 1) + ")",
                   study.series.size() > 1
                       ? "CCDF (xi=" + format_fixed(study.series.back().xi, 1) + ")"
                       : "-"});
  for (double x = 0.0; x <= 0.551; x += 0.05) {
    std::vector<std::string> cells{format_fixed(x, 2)};
    for (const Figure2Series& series : study.series) {
      cells.push_back(format_fixed(ccdf_at(series.ccdf, x), 3));
    }
    table.add_row(std::move(cells));
  }
  out += table.render();
  for (const Figure2Series& series : study.series) {
    out += "\nxi=" + format_fixed(series.xi, 1) + ": " +
           pct(series.users_frac_ge_quarter) +
           " of analyzable users can get >=25% of traffic from one facility; " +
           pct(series.users_frac_all_four) + " have an all-four facility (52%)";
  }
  out += "\n";
  return out;
}

// ------------------------------------------------- Validation (S3.2) ------

ValidationStudy validation_study(const Pipeline& pipeline, double xi) {
  ValidationStudy study;
  study.xi = xi;
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  // Shared pipeline corpus: carries the fault plan's rDNS pathologies and
  // records the "rdns" StageHealth exactly once.
  const PtrStore& ptr = pipeline.ptr_store();

  Hoiho raw(pipeline.internet());
  study.without_corrections = validate_clusters(
      pipeline.internet(), registry, pipeline.clusterings(xi), ptr, raw);

  Hoiho corrected(pipeline.internet());
  corrected.apply_manual_corrections();
  study.with_corrections = validate_clusters(
      pipeline.internet(), registry, pipeline.clusterings(xi), ptr, corrected);
  return study;
}

std::string render(const ValidationStudy& study) {
  const auto row = [](const char* label, const ValidationSummary& summary) {
    return std::vector<std::string>{
        label,
        with_commas((long long)summary.clusters_with_hints),
        with_commas((long long)summary.single_city),
        with_commas((long long)summary.single_metro_area),
        with_commas((long long)summary.multi_city_same_country),
        with_commas((long long)summary.multi_country),
        format_percent(summary.consistent_fraction(), 1),
        format_percent(summary.hint_coverage(), 1),
        format_percent(summary.confidence(), 1)};
  };
  std::string out = "Validation via rDNS location hints (xi=" +
                    format_fixed(study.xi, 1) + ")\n";
  TextTable table({"HOIHO variant", ">=2 hints", "single city", "metro area",
                   "multi-city", "multi-country", "consistent", "hint cov",
                   "confidence"});
  table.add_row(row("raw", study.without_corrections));
  table.add_row(row("manually corrected", study.with_corrections));
  out += table.render();
  return out;
}

// ------------------------------------------------ Longitudinal (S3.1) -----

LongitudinalStudy longitudinal_study(const Pipeline& pipeline, int first_year,
                                     int last_year) {
  LongitudinalStudy study;
  const DeploymentPolicy policy(pipeline.internet(),
                                pipeline.scenario().deployment);
  for (int year = first_year; year <= last_year; ++year) {
    LongitudinalRow row;
    row.year = year;
    std::map<AsIndex, int> hg_count;
    for (const Hypergiant hg : all_hypergiants()) {
      const auto footprint = policy.footprint_for_year(hg, year);
      row.isps_per_hg[static_cast<std::size_t>(hg)] = footprint.size();
      for (const AsIndex isp : footprint) ++hg_count[isp];
    }
    row.hosting_isps = hg_count.size();
    int total = 0;
    for (const auto& [isp, count] : hg_count) {
      (void)isp;
      total += count;
      if (count >= 2) ++row.isps_ge2;
      if (count >= 3) ++row.isps_ge3;
      if (count >= 4) ++row.isps_eq4;
    }
    if (!hg_count.empty()) {
      row.mean_hypergiants_per_hosting_isp =
          static_cast<double>(total) / hg_count.size();
    }
    study.rows.push_back(row);
  }
  return study;
}

std::string render(const LongitudinalStudy& study) {
  std::string out =
      "Longitudinal footprints (growth model anchored on Table 1)\n";
  TextTable table({"year", "Google", "Netflix", "Meta", "Akamai", "hosting",
                   ">=2", ">=3", "all 4", "mean HGs/ISP"});
  for (const LongitudinalRow& row : study.rows) {
    table.add_row({std::to_string(row.year),
                   with_commas((long long)row.isps_per_hg[0]),
                   with_commas((long long)row.isps_per_hg[1]),
                   with_commas((long long)row.isps_per_hg[2]),
                   with_commas((long long)row.isps_per_hg[3]),
                   with_commas((long long)row.hosting_isps),
                   with_commas((long long)row.isps_ge2),
                   with_commas((long long)row.isps_ge3),
                   with_commas((long long)row.isps_eq4),
                   format_fixed(row.mean_hypergiants_per_hosting_isp, 2)});
  }
  out += table.render();
  return out;
}

// ------------------------------------------------------- Section 3.3 ------

Section33Study section33_study(const Pipeline& pipeline) {
  Section33Study study;
  const Internet& net = pipeline.internet();
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);

  // Interceptable traffic per facility, per country: for each ISP and each
  // hypergiant it hosts, the deployment's serveable traffic (users x
  // serveable fraction) attributes to its facilities pro rata by servers.
  struct CountryAccumulator {
    double total_traffic = 0.0;   // users (proxy for total traffic)
    double offnet_traffic = 0.0;  // user-weighted offnet-serveable share
    std::map<FacilityIndex, double> per_facility;
  };
  std::vector<CountryAccumulator> accumulators(all_countries().size());

  for (const AsIndex isp : net.access_isps()) {
    const As& as = net.ases[isp];
    accumulators[as.country].total_traffic += as.users;
  }
  for (const AsIndex isp : registry.hosting_isps()) {
    const As& as = net.ases[isp];
    auto& acc = accumulators[as.country];
    for (const Hypergiant hg : registry.hypergiants_at(isp)) {
      const Deployment* deployment = registry.find_deployment(isp, hg);
      const double traffic =
          as.users * offnet_serveable_traffic_fraction(hg);
      acc.offnet_traffic += traffic;
      // Pro-rata by server count per facility.
      std::map<FacilityIndex, std::size_t> counts;
      for (const std::size_t si : deployment->server_indices) {
        ++counts[registry.servers()[si].facility];
      }
      for (const auto& [facility, count] : counts) {
        acc.per_facility[facility] +=
            traffic * static_cast<double>(count) /
            static_cast<double>(deployment->server_indices.size());
      }
    }
  }

  std::vector<double> halves;
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const auto& acc = accumulators[ci];
    if (acc.total_traffic <= 0.0 || acc.per_facility.empty()) continue;
    CountryChokepoints row;
    row.code = std::string(all_countries()[ci].code);
    row.name = std::string(all_countries()[ci].name);
    row.users_m = acc.total_traffic / 1e6;
    row.offnet_served_traffic_share = acc.offnet_traffic / acc.total_traffic;
    row.facilities_total = static_cast<int>(acc.per_facility.size());

    std::vector<double> shares;
    shares.reserve(acc.per_facility.size());
    for (const auto& [facility, traffic] : acc.per_facility) {
      (void)facility;
      shares.push_back(traffic / acc.offnet_traffic);
    }
    std::sort(shares.begin(), shares.end(), std::greater<>());
    row.top_facility_share = shares.front();
    double cumulative = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      cumulative += shares[i];
      if (row.facilities_for_half == 0 && cumulative >= 0.5) {
        row.facilities_for_half = static_cast<int>(i + 1);
      }
      if (row.facilities_for_ninety == 0 && cumulative >= 0.9) {
        row.facilities_for_ninety = static_cast<int>(i + 1);
        break;
      }
    }
    halves.push_back(row.facilities_for_half);
    study.countries.push_back(std::move(row));
  }
  std::sort(study.countries.begin(), study.countries.end(),
            [](const CountryChokepoints& a, const CountryChokepoints& b) {
              return a.users_m > b.users_m;
            });
  if (!halves.empty()) study.median_facilities_for_half = median(halves);
  return study;
}

std::string render(const Section33Study& study, std::size_t max_countries) {
  std::string out =
      "Section 3.3: choke points -- how few facilities intercept a country's\n"
      "offnet-served traffic\n\n";
  TextTable table({"Country", "users (M)", "offnet share", "top facility",
                   "facilities: 50%", "90%", "total"});
  std::size_t shown = 0;
  for (const CountryChokepoints& row : study.countries) {
    if (shown++ >= max_countries) break;
    table.add_row({row.code + " " + row.name, format_fixed(row.users_m, 1),
                   pct(row.offnet_served_traffic_share),
                   pct(row.top_facility_share),
                   std::to_string(row.facilities_for_half),
                   std::to_string(row.facilities_for_ninety),
                   std::to_string(row.facilities_total)});
  }
  out += table.render();
  out += "\nMedian country: half of all offnet-served traffic flows through " +
         format_fixed(study.median_facilities_for_half, 0) + " facilities\n";
  return out;
}

// ------------------------------------------------------- Section 4.1 ------

Section41Study section41_study(const Pipeline& pipeline,
                               std::span<const double> xis) {
  Section41Study study;
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  const DiscoveryReport& report =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);

  for (const Hypergiant hg : all_hypergiants()) {
    SingleSiteRow row;
    row.hg = hg;
    row.single_site_frac_lo = 1.0;
    row.single_site_frac_hi = 0.0;
    for (const double xi : xis) {
      std::size_t considered = 0;
      std::size_t single = 0;
      for (const auto& [isp, ips] : report.footprint(hg).by_isp) {
        (void)ips;
        const IspClustering* clustering = pipeline.clustering_of(xi, isp);
        if (clustering == nullptr || !clustering->usable) continue;
        const int sites = inferred_site_count(*clustering, registry, hg);
        if (sites == 0) continue;
        ++considered;
        if (sites == 1) ++single;
      }
      if (considered == 0) continue;
      const double frac = static_cast<double>(single) / considered;
      row.single_site_frac_lo = std::min(row.single_site_frac_lo, frac);
      row.single_site_frac_hi = std::max(row.single_site_frac_hi, frac);
    }
    if (row.single_site_frac_lo > row.single_site_frac_hi) {
      row.single_site_frac_lo = row.single_site_frac_hi = 0.0;
    }
    study.single_site.push_back(row);
  }

  study.covid = covid_surge(CovidSurgeInput{});
  study.diurnal = diurnal_study(DiurnalStudyConfig{});
  return study;
}

std::string render(const Section41Study& study) {
  std::string out = "Section 4.1: offnets run near capacity\n\n";
  TextTable sites({"Hypergiant", "single-site ISPs (range across xi)"});
  for (const SingleSiteRow& row : study.single_site) {
    sites.add_row({std::string(to_string(row.hg)),
                   pct(row.single_site_frac_lo) + " - " +
                       pct(row.single_site_frac_hi)});
  }
  out += sites.render();

  out += "\nLockdown surge model (paper: +58% demand -> offnets +20%, "
         "interdomain >2x):\n";
  out += "  offnet traffic:      " + format_fixed(study.covid.offnet_before, 3) +
         " -> " + format_fixed(study.covid.offnet_after, 3) + "  (" +
         (study.covid.offnet_increase_fraction() >= 0 ? "+" : "") +
         pct(study.covid.offnet_increase_fraction()) + ")\n";
  out += "  interdomain traffic: " +
         format_fixed(study.covid.interdomain_before, 3) + " -> " +
         format_fixed(study.covid.interdomain_after, 3) + "  (x" +
         format_fixed(study.covid.interdomain_multiplier(), 2) + ")\n";

  out += "\nDiurnal study (530 apartments): share of traffic from nearby "
         "(in-ISP offnet) servers by local hour\n";
  TextTable diurnal({"hour", "demand (Gbps)", "near", "far"});
  for (const DiurnalPoint& point : study.diurnal) {
    diurnal.add_row({format_fixed(point.local_hour, 0),
                     format_fixed(point.total_demand, 2),
                     pct(point.near_fraction), pct(point.far_fraction)});
  }
  out += diurnal.render();
  return out;
}

// ----------------------------------------------------- Section 4.2.1 ------

Section421Study section421_study(const Pipeline& pipeline, Hypergiant hg) {
  Section421Study study;
  study.hg = hg;
  const Internet& net = pipeline.internet();
  const AsIndex hg_as = net.as_by_asn(profile(hg).asn);

  // Shared pipeline study: the traceroute engine carries the fault plan's
  // BGP-flap knobs, and path-instability downgrades land in the "peering"
  // StageHealth.
  const auto& evidence = pipeline.peering_study(hg);

  // Offnet hosts of this hypergiant.
  const DiscoveryReport& report =
      pipeline.discovery(Snapshot::k2023, Methodology::k2023);
  std::size_t peers = 0;
  std::size_t possible = 0;
  std::size_t none = 0;
  std::size_t true_peers = 0;
  for (const auto& [isp, ips] : report.footprint(hg).by_isp) {
    (void)ips;
    ++study.offnet_isps;
    if (net.has_peering(isp, hg_as)) ++true_peers;
    const auto it = evidence.find(isp);
    if (it == evidence.end()) {
      ++none;
      continue;
    }
    switch (it->second.status) {
      case PeeringStatus::kPeer: ++peers; break;
      case PeeringStatus::kPossiblePeer: ++possible; break;
      case PeeringStatus::kNoEvidence: ++none; break;
    }
  }
  if (study.offnet_isps > 0) {
    const double denom = static_cast<double>(study.offnet_isps);
    study.peer_pct = 100.0 * peers / denom;
    study.possible_pct = 100.0 * possible / denom;
    study.no_evidence_pct = 100.0 * none / denom;
    study.true_peering_pct = 100.0 * true_peers / denom;
  }

  // All inferred peers (any probed AS), IXP involvement.
  std::size_t via_ixp = 0;
  std::size_t ixp_only = 0;
  for (const auto& [isp, result] : evidence) {
    (void)isp;
    if (result.status != PeeringStatus::kPeer) continue;
    ++study.total_peers;
    if (result.seen_via_ixp) ++via_ixp;
    if (result.seen_via_ixp && !result.seen_via_pni) ++ixp_only;
  }
  if (study.total_peers > 0) {
    study.via_ixp_pct = 100.0 * via_ixp / static_cast<double>(study.total_peers);
    study.ixp_only_pct = 100.0 * ixp_only / static_cast<double>(study.total_peers);
  }
  return study;
}

std::string render(const Section421Study& study) {
  std::string out = "Section 4.2.1: dedicated peering of " +
                    std::string(to_string(study.hg)) + " (traceroute study)\n\n";
  out += "Of " + with_commas((long long)study.offnet_isps) + " ISPs with " +
         std::string(to_string(study.hg)) + " offnets:\n";
  out += "  peering observed:    " + format_fixed(study.peer_pct, 1) + "%\n";
  out += "  possible peering:    " + format_fixed(study.possible_pct, 1) +
         "%   (only unresponsive hops in between)\n";
  out += "  no evidence:         " + format_fixed(study.no_evidence_pct, 1) +
         "%   (traffic must come via providers)\n";
  out += "  [ground truth peering: " + format_fixed(study.true_peering_pct, 1) +
         "%]\n\n";
  out += "Of " + with_commas((long long)study.total_peers) +
         " inferred peers overall: " + format_fixed(study.via_ixp_pct, 1) +
         "% peer via an IXP in >=1 traceroute; " +
         format_fixed(study.ixp_only_pct, 1) + "% only via IXPs\n";
  return out;
}

// ----------------------------------------------------- Section 4.2.2 ------

Section422Study section422_study(const Pipeline& pipeline) {
  Section422Study study;
  for (const Hypergiant hg : all_hypergiants()) {
    study.per_hg.push_back(pni_utilization(
        pipeline.internet(), pipeline.demand(), pipeline.capacity(), hg));
  }
  return study;
}

std::string render(const Section422Study& study) {
  std::string out =
      "Section 4.2.2: dedicated peering often lacks sufficient capacity\n"
      "(peak interdomain demand vs provisioned PNI capacity)\n";
  TextTable table({"Hypergiant", "ISPs w/ PNI", "PNIs exceeded", "mean exceedance",
                   "demand >= 2x cap"});
  for (const PniUtilizationStats& stats : study.per_hg) {
    table.add_row({std::string(to_string(stats.hg)),
                   with_commas((long long)stats.isps_with_pni),
                   pct(stats.fraction_exceeded),
                   pct(stats.mean_peak_exceedance),
                   pct(stats.fraction_demand_2x)});
  }
  out += table.render();
  out += "(paper reference points: Google peak demand exceeded capacity by >=13%\n"
         " on average; 10% of Meta PNIs saw demand at 2x capacity)\n";
  return out;
}

// ------------------------------------------------------- Section 4.3 ------

Section43Study section43_study(const Pipeline& pipeline, std::size_t max_isps) {
  Section43Study study;
  const auto hosting = pipeline.hosting_isps_2023();
  const std::size_t stride = std::max<std::size_t>(1, hosting.size() / max_isps);

  double single_sum = 0.0;
  std::size_t single_count = 0;
  double multi_sum = 0.0;
  std::size_t multi_count = 0;
  std::size_t congested = 0;
  double shift_sum = 0.0;

  for (std::size_t i = 0; i < hosting.size(); i += stride) {
    const AsIndex isp = hosting[i];
    const CascadeOutcome outcome =
        cascade_study(pipeline.internet(), pipeline.registry(Snapshot::k2023),
                      pipeline.demand(), pipeline.capacity(), isp);
    if (outcome.failed_facility == kInvalidIndex) continue;
    ++study.isps_studied;

    const double collateral = outcome.collateral_degradation();
    if (outcome.hypergiants_in_facility >= 2) {
      multi_sum += collateral;
      ++multi_count;
    } else {
      single_sum += collateral;
      ++single_count;
    }

    const bool baseline_congested =
        outcome.baseline.ixp_drop_fraction() > 0.0 ||
        outcome.baseline.transit_drop_fraction() > 0.0;
    const bool failure_congested =
        outcome.failure.ixp_drop_fraction() > 0.0 ||
        outcome.failure.transit_drop_fraction() > 0.0;
    if (failure_congested && !baseline_congested) ++congested;

    double shift = 0.0;
    for (const Hypergiant hg : all_hypergiants()) {
      shift += outcome.failure.flow(hg).interdomain() -
               outcome.baseline.flow(hg).interdomain();
    }
    shift_sum += shift;
  }

  if (single_count > 0) study.mean_collateral_single_hg = single_sum / single_count;
  if (multi_count > 0) study.mean_collateral_multi_hg = multi_sum / multi_count;
  if (study.isps_studied > 0) {
    study.frac_shared_congestion =
        static_cast<double>(congested) / study.isps_studied;
    study.mean_interdomain_shift_gbps = shift_sum / study.isps_studied;
  }
  return study;
}

// --------------------------------------------------------- Section 6 ------

Section6Study section6_study(const Pipeline& pipeline, std::size_t max_isps) {
  Section6Study study;
  const auto hosting = pipeline.hosting_isps_2023();
  const std::size_t stride = std::max<std::size_t>(1, hosting.size() / max_isps);
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  const SpilloverSimulator simulator(pipeline.internet(), registry,
                                     pipeline.demand(), pipeline.capacity());

  double collateral_be = 0.0;
  double collateral_iso = 0.0;
  double degraded_be = 0.0;
  double degraded_iso = 0.0;

  for (std::size_t i = 0; i < hosting.size(); i += stride) {
    const AsIndex isp = hosting[i];
    // Fail the facility hosting the most hypergiants at local peak.
    FacilityIndex worst = kInvalidIndex;
    std::size_t worst_count = 0;
    for (const auto& [facility, hgs] : registry.facility_map(isp)) {
      if (hgs.size() > worst_count) {
        worst_count = hgs.size();
        worst = facility;
      }
    }
    if (worst == kInvalidIndex) continue;
    ++study.isps_studied;

    SpilloverScenario scenario;
    scenario.utc_hour = simulator.local_peak_utc_hour(isp);
    scenario.failed_facilities.insert(worst);

    scenario.policy = SharedLinkPolicy::kBestEffort;
    const SpilloverResult best_effort = simulator.simulate(isp, scenario);
    scenario.policy = SharedLinkPolicy::kIsolation;
    const SpilloverResult isolation = simulator.simulate(isp, scenario);

    collateral_be += best_effort.other_traffic_degraded_fraction();
    collateral_iso += isolation.other_traffic_degraded_fraction();
    for (const Hypergiant hg : all_hypergiants()) {
      degraded_be += best_effort.flow(hg).degraded;
      degraded_iso += isolation.flow(hg).degraded;
    }
  }
  if (study.isps_studied > 0) {
    const double n = static_cast<double>(study.isps_studied);
    study.collateral_best_effort = collateral_be / n;
    study.collateral_isolation = collateral_iso / n;
    study.hg_degraded_best_effort_gbps = degraded_be / n;
    study.hg_degraded_isolation_gbps = degraded_iso / n;
  }
  return study;
}

std::string render(const Section6Study& study) {
  std::string out =
      "Section 6: shared-link isolation as a mitigation (what-if)\n"
      "(busiest-facility failure at local peak, with and without reserving\n"
      " capacity for non-hypergiant traffic on IXP/transit links)\n\n";
  TextTable table({"policy", "collateral to other traffic",
                   "hypergiant traffic degraded"});
  table.add_row({"best effort (today)", pct(study.collateral_best_effort, 2),
                 format_fixed(study.hg_degraded_best_effort_gbps, 1) + " Gbps"});
  table.add_row({"isolation", pct(study.collateral_isolation, 2),
                 format_fixed(study.hg_degraded_isolation_gbps, 1) + " Gbps"});
  out += table.render();
  out += "\nISPs studied: " + with_commas((long long)study.isps_studied) + "\n";
  out += "(isolation protects unrelated traffic but concentrates the pain on\n"
         " the spilling hypergiants -- the Section 6 trade-off)\n";
  return out;
}

std::string render(const Section43Study& study) {
  std::string out =
      "Section 4.3: spillover to shared routes causes collateral damage\n"
      "(fail each ISP's busiest offnet facility at local evening peak)\n\n";
  out += "ISPs studied: " + with_commas((long long)study.isps_studied) + "\n";
  out += "newly congested shared links (IXP/transit): " +
         pct(study.frac_shared_congestion) + " of ISPs\n";
  out += "mean extra interdomain traffic: " +
         format_fixed(study.mean_interdomain_shift_gbps, 1) + " Gbps per ISP\n";
  out += "mean collateral degradation of other traffic:\n";
  out += "  facility hosted 1 hypergiant:   " +
         pct(study.mean_collateral_single_hg, 2) + "\n";
  out += "  facility hosted >=2 hypergiants: " +
         pct(study.mean_collateral_multi_hg, 2) + "\n";
  return out;
}

}  // namespace repro
