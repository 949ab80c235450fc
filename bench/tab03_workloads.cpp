/**
 * @file
 * Reproduces Tables 2 and 3: the simulated-SSD configuration and the
 * I/O characteristics of the eleven evaluation workloads, measured on
 * the synthetic traces actually used by the system-level benches. Trace
 * generation fans out over parallelMap; `--json`/`--csv` drop the
 * measured characteristics as machine-readable artifacts.
 */

#include "bench_util.hh"
#include "exp/sweep.hh"
#include "ssd/config.hh"
#include "workload/synthetic.hh"
#include "workload/trace_stats.hh"

using namespace aero;

int
main(int argc, char **argv)
{
    const auto artifacts = bench::parseArtifactArgs(argc, argv);
    bench::header("Table 2: simulated SSD configurations");
    std::printf("paper scale:\n%s\n", SsdConfig::paper().summary().c_str());
    std::printf("bench scale (capacity-reduced, same topology):\n%s",
                SsdConfig::bench().summary().c_str());

    bench::header("Table 3: workload characteristics (generated traces)");
    // --small: shorter traces over a smaller footprint for the gate.
    const std::uint64_t footprint_pages =
        artifacts.small ? 1 << 16 : 1 << 18;
    const std::uint64_t num_requests = artifacts.small ? 5000 : 20000;
    Json journal_cfg = Json::object();
    journal_cfg["footprint_pages"] = footprint_pages;
    journal_cfg["num_requests"] = num_requests;
    journal_cfg["small"] = artifacts.small;
    const auto stats = runCampaign(
        artifacts.campaign, "tab03_workloads", std::move(journal_cfg),
        [&](const CampaignScope &scope) {
            return parallelMapJournaled(
                scope.journal, table3Workloads(),
                [&](std::size_t, const WorkloadSpec &w) {
                    return scope.key("workload", w.name);
                },
                [&](const WorkloadSpec &spec) {
                    SyntheticConfig cfg;
                    cfg.spec = spec;
                    cfg.footprintPages = footprint_pages;
                    cfg.numRequests = num_requests;
                    SyntheticTraceStream trace(cfg);
                    return computeExtendedStats(trace, cfg.pageSizeKB);
                });
        });

    bench::rule();
    std::printf("%-7s | %8s | %9s | %9s | %11s | %8s\n", "trace",
                "read[%]", "spec[KB]", "meas[KB]", "inter[ms]",
                "hot1%[%]");
    bench::rule();
    const auto &specs = table3Workloads();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &s = stats[i];
        std::printf("%-7s | %7.1f%% | %9.1f | %9.1f | %11.2f | %7.1f%%\n",
                    specs[i].name.c_str(), 100.0 * s.basic.readRatio,
                    specs[i].avgReqSizeKB, s.basic.avgReqSizeKB,
                    s.basic.avgInterArrivalMs, 100.0 * s.hot1pctFraction);
    }
    bench::rule();
    bench::note("MSRC traces accelerated 10x as in the paper; sizes are "
                "quantized to 16-KiB flash pages");

    if (artifacts.wantJson()) {
        Json doc = Json::object();
        doc["schema"] = "aero-tab03/1";
        Json axes = Json::array();
        axes.push("workload");
        doc["axes"] = std::move(axes);
        Json spec = Json::object();
        spec["footprint_pages"] = footprint_pages;
        spec["num_requests"] = num_requests;
        spec["small"] = artifacts.small;
        doc["spec"] = std::move(spec);
        Json rows = Json::array();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &s = stats[i];
            Json row = Json::object();
            row["workload"] = specs[i].name;
            row["source_trace"] = specs[i].sourceTrace;
            row["read_ratio"] = s.basic.readRatio;
            row["spec_req_size_kb"] = specs[i].avgReqSizeKB;
            row["measured_req_size_kb"] = s.basic.avgReqSizeKB;
            row["inter_arrival_ms"] = s.basic.avgInterArrivalMs;
            row["hot_1pct_fraction"] = s.hot1pctFraction;
            rows.push(std::move(row));
        }
        doc["results"] = std::move(rows);
        artifacts.writeJson(doc);
    }
    if (artifacts.wantCsv()) {
        std::string csv = "workload,source_trace,read_ratio,"
                          "spec_req_size_kb,measured_req_size_kb,"
                          "inter_arrival_ms,hot_1pct_fraction\n";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &s = stats[i];
            csv += specs[i].name + ',' + specs[i].sourceTrace;
            csv += ',' + std::to_string(s.basic.readRatio);
            csv += ',' + std::to_string(specs[i].avgReqSizeKB);
            csv += ',' + std::to_string(s.basic.avgReqSizeKB);
            csv += ',' + std::to_string(s.basic.avgInterArrivalMs);
            csv += ',' + std::to_string(s.hot1pctFraction) + '\n';
        }
        writeTextFile(artifacts.csvPath, csv);
    }
    return 0;
}
