/**
 * @file
 * Overhead gate for the telemetry subsystem: run the same campaign
 * with metrics collection off (no registry -- every count() is a
 * null-check) and on (per-worker shards, phase timers, distribution
 * samples), assert the aggregates are bit-identical, and gate the
 * on/off wall-clock ratio so instrumentation creep fails CI before it
 * taxes every campaign.
 *
 * The gate reads the median of five per-pair ratios. Each pair runs
 * off and on back to back, alternating which goes first, so drift
 * (thermal, other tenants) lands on both sides of every ratio, and
 * the median drops the pairs a noisy neighbour hit. Every trial and
 * the ratios' min/max go into the JSON record, so a failing reading
 * shows whether it was one bad pair or a real shift.
 *
 * Usage: bench_telemetry_overhead [output.json] [max-ratio]
 *
 * Exit status is nonzero when the aggregates diverge (telemetry
 * perturbed the simulation) or when metrics-on runs more than
 * `max-ratio` times metrics-off wall-clock in the median pair -- CI
 * passes 1.02, the 2% overhead ceiling DESIGN.md section 11 commits
 * to.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/parallel_campaign.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"

namespace {

using namespace xser;

/** One timed campaign, metrics on or off. */
struct Timed {
    double seconds = 0.0;
    core::ReplicatedCampaignResult result;
};

Timed
timedRun(const core::CampaignConfig &config, bool metrics)
{
    core::ParallelRunConfig run;
    run.jobs = bench::benchJobs();
    run.replicates = 2;
    telemetry::MetricRegistry registry(run.jobs);
    if (metrics)
        run.metrics = &registry;
    core::ParallelCampaignRunner runner(config, run);
    Timed timed;
    const telemetry::Stopwatch watch;
    timed.result = runner.executeAll();
    timed.seconds = watch.seconds();
    return timed;
}

bool
aggregatesIdentical(const core::ReplicatedCampaignResult &a,
                    const core::ReplicatedCampaignResult &b)
{
    if (a.sessions.size() != b.sessions.size())
        return false;
    for (size_t s = 0; s < a.sessions.size(); ++s) {
        const core::SessionAggregate &x = a.sessions[s];
        const core::SessionAggregate &y = b.sessions[s];
        if (x.runs != y.runs || x.fluence != y.fluence ||
            x.upsetsDetected != y.upsetsDetected ||
            x.rawUpsetEvents != y.rawUpsetEvents ||
            x.events.total() != y.events.total() ||
            x.fitTotal.mean() != y.fitTotal.mean() ||
            x.fitTotal.variance() != y.fitTotal.variance())
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_telemetry.json";
    const double max_ratio = argc > 2 ? std::atof(argv[2]) : 0.0;

    // Small smoke scale by default: the point is the ratio and the
    // bit-identity check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);
    bench::banner("Telemetry overhead gate (metrics off vs on)", scale);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);

    constexpr size_t pairs = 5;
    std::vector<double> off_seconds;
    std::vector<double> on_seconds;
    std::vector<double> ratios;
    core::ReplicatedCampaignResult reference;
    bool identical = true;
    for (size_t pair = 0; pair < pairs; ++pair) {
        const bool off_first = pair % 2 == 0;
        const Timed first = timedRun(config, !off_first);
        const Timed second = timedRun(config, off_first);
        const Timed &off = off_first ? first : second;
        const Timed &on = off_first ? second : first;
        if (pair == 0)
            reference = off.result;
        identical = identical &&
                    aggregatesIdentical(reference, off.result) &&
                    aggregatesIdentical(reference, on.result);
        off_seconds.push_back(off.seconds);
        on_seconds.push_back(on.seconds);
        ratios.push_back(on.seconds / off.seconds);
        std::printf("pair %zu: off %.2f s, on %.2f s, ratio %.4f\n",
                    pair + 1, off.seconds, on.seconds, ratios.back());
    }
    auto median = [](std::vector<double> values) {
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    const double ratio = median(ratios);
    const auto [ratio_min, ratio_max] =
        std::minmax_element(ratios.begin(), ratios.end());

    std::printf("metrics off: %.2f s (median of %zu)\n",
                median(off_seconds), pairs);
    std::printf("metrics on:  %.2f s (median of %zu)\n",
                median(on_seconds), pairs);
    std::printf("on/off ratio: %.4f (median pair; min %.4f, max %.4f)\n",
                ratio, *ratio_min, *ratio_max);
    std::printf("bit-identical aggregates: %s\n",
                identical ? "yes" : "NO -- TELEMETRY PERTURBED RESULTS");

    bench::BenchReport report("telemetry_overhead");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(bench::benchJobs()));
    report.add("pairs", static_cast<uint64_t>(pairs));
    report.add("metrics_off_seconds", median(off_seconds));
    report.add("metrics_on_seconds", median(on_seconds));
    report.add("on_over_off_ratio", ratio);
    report.add("ratio_min", *ratio_min);
    report.add("ratio_max", *ratio_max);
    report.addArray("off_seconds_by_pair", off_seconds);
    report.addArray("on_seconds_by_pair", on_seconds);
    report.addArray("ratio_by_pair", ratios);
    report.add("aggregates_identical", identical);
    report.write(out_path);

    if (!identical)
        return 1;
    if (max_ratio > 0.0 && ratio > max_ratio) {
        std::printf("REGRESSION: ratio %.4f above the %.4f ceiling\n",
                    ratio, max_ratio);
        return 1;
    }
    return 0;
}
