// End-to-end benchmark program.
//
//   perfbench --workload large-mul|serve-mixed|ft-recovery
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints one line per metric and host-noise notes, then, as the last line,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs
// (--trace 1) the per-layer metrics and the tracing overhead. Exit status:
// 0 when every product passed the oracle, 1 on a wrong product or a metric
// that could not be measured (too few samples, or infinite because too many
// ops failed), 2 on usage errors.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload large-mul|serve-mixed|"
                 "ft-recovery --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n");
    std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage();
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0') usage();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0)) usage();
        } else if (arg == "--trace") {
            if (val != "0" && val != "1") usage();
            o.trace = val == "1";
        } else if (arg == "--spans-out") {
            o.spans_out = val;
        } else {
            usage();
        }
    }
    if (o.workload != "large-mul" && o.workload != "serve-mixed" &&
        o.workload != "ft-recovery") {
        usage();
    }
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::Options opt = parse(argc, argv);
    perfbench::RunReport rep;
    try {
        rep = perfbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (!rep.correct) {
        std::fprintf(stderr,
                     "perfbench: WRONG PRODUCT: %llu of %llu ops "
                     "without a correct product\n",
                     static_cast<unsigned long long>(rep.failed),
                     static_cast<unsigned long long>(rep.attempted));
    }
    for (const perfbench::Metric& m : rep.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }
    for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
    for (const perfbench::Metric& m : rep.metrics) {
        std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const perfbench::Metric& m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return rep.correct ? 0 : 1;
}
