/**
 * @file
 * Endurance scenario: cycle a block population to end of life under two
 * erase schemes and watch the average max-RBER trajectories diverge --
 * the mechanism behind the paper's 43% lifetime improvement. A compact
 * version of the Fig. 13 study, with the trajectory printed as it runs.
 *
 * Usage: lifetime_endurance [schemeA] [schemeB]
 *   scheme names: baseline, iispe, dpes, cons, aero
 */

#include <cstdio>
#include <cstring>

#include "devchar/lifetime.hh"

using namespace aero;

namespace
{

SchemeKind
parseScheme(const char *s, SchemeKind fallback)
{
    if (!s)
        return fallback;
    if (!std::strcmp(s, "baseline"))
        return SchemeKind::Baseline;
    if (!std::strcmp(s, "iispe"))
        return SchemeKind::IIspe;
    if (!std::strcmp(s, "dpes"))
        return SchemeKind::Dpes;
    if (!std::strcmp(s, "cons"))
        return SchemeKind::AeroCons;
    if (!std::strcmp(s, "aero"))
        return SchemeKind::Aero;
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    const SchemeKind a =
        parseScheme(argc > 1 ? argv[1] : nullptr, SchemeKind::Baseline);
    const SchemeKind b =
        parseScheme(argc > 2 ? argv[2] : nullptr, SchemeKind::Aero);

    LifetimeConfig cfg;
    cfg.farm.numChips = 8;
    cfg.farm.blocksPerChip = 15;
    cfg.checkpointEvery = 250;
    LifetimeTester tester(cfg);

    std::printf("cycling %d blocks to the %d-bit RBER requirement...\n\n",
                cfg.farm.numChips * cfg.farm.blocksPerChip,
                cfg.schemeOptions.rberRequirement);
    const auto ra = tester.run(a);
    const auto rb = tester.run(b);

    std::printf("%8s | %12s | %12s\n", "PEC", schemeKindName(a),
                schemeKindName(b));
    std::printf("%s\n", std::string(40, '-').c_str());
    const std::size_t rows = std::max(ra.curve.size(), rb.curve.size());
    for (std::size_t i = 0; i < rows; i += 2) {
        const double pec = (i + 1) * cfg.checkpointEvery;
        std::printf("%8.0f |", pec);
        if (i < ra.curve.size())
            std::printf(" %12.1f |", ra.curve[i].second);
        else
            std::printf(" %12s |", "worn out");
        if (i < rb.curve.size())
            std::printf(" %12.1f\n", rb.curve[i].second);
        else
            std::printf(" %12s\n", "worn out");
    }
    std::printf("\nlifetime: %s %.0f PEC, %s %.0f PEC (%+.1f%%)\n",
                schemeKindName(a), ra.lifetimePec, schemeKindName(b),
                rb.lifetimePec,
                100.0 * (rb.lifetimePec - ra.lifetimePec) /
                    ra.lifetimePec);
    std::printf("avg erase: %s %.2f ms (%.2f loops), "
                "%s %.2f ms (%.2f loops)\n",
                schemeKindName(a), ra.avgEraseLatencyMs, ra.avgLoops,
                schemeKindName(b), rb.avgEraseLatencyMs, rb.avgLoops);
    return 0;
}
