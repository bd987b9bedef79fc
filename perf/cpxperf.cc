/**
 * @file
 * cpxperf — one repetition of a host-performance benchmark workload
 * (perf/README.md), run in this process, reported as one JSON line.
 *
 *   cpxperf --one=WORKLOAD [--seed=N] [--threads=W] [--scale=F]
 *           [--observers=SET] [--spans]
 *   cpxperf --probes [--spans]
 *   cpxperf --spawn PROGRAM [ARGS...]
 *
 * WORKLOAD is mesh-ocean, uniform-ocean, observed-stress-64 or
 * paper-sweep. The first three are one simulation point each. The
 * sweep itself runs through the cpxbench CLI, driven by perf/run.py;
 * paper-sweep here replays the sweep's fig2 grid (five applications x
 * eight protocols, RC, uniform, smoke size) back to back, so that the
 * traced run can break those points into layers. perf/run.py checks
 * the replay's totals against the sweep's own fig2 points.
 *
 * SET overrides the workload's observers: default, none, attrib,
 * sampler, tracer, checker or all. --scale replaces every point's
 * problem size. --spans adds the recorded spans to the output.
 *
 * --spawn runs PROGRAM as a child, waits for it, exits with its status
 * and ends stderr with "rusage USER_S SYSTEM_S MAXRSS_KB" for the
 * child's process tree. perf/run.py starts every measured process this
 * way: a process's peak RSS also counts the image it was exec'd from,
 * and the Python interpreter's image is larger than some children.
 *
 * Only long-lived entry points are called: makeParams, System,
 * makeWorkload, Workload::setup/verify, System::run,
 * System::flushFunctionalState, collectStats, formatSystemStats and
 * the observer installers; the probes (probes.cc) add EventQueue,
 * Fiber, the two networks and SlabEngine.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "obs/attrib.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf.hh"
#include "sim/parse.hh"
#include "workloads/workload.hh"

namespace
{

using namespace cpx;
using cpxperf::SpanLog;

enum ObserverBits : unsigned
{
    obsAttrib = 1,
    obsSampler = 2,
    obsTracer = 4,
    obsChecker = 8,
    obsAll = 15,
};

/** The sampler period of observed-stress-64, in pclocks. */
constexpr Tick samplerInterval = 1000;

struct Point
{
    std::string app;
    MachineParams params;
    double scale;
};

struct WorkloadDef
{
    std::vector<Point> points;
    unsigned observers = 0;
};

WorkloadDef
defineWorkload(const std::string &name)
{
    WorkloadDef def;
    if (name == "mesh-ocean") {
        def.points.push_back(
            {"ocean",
             makeParams(ProtocolConfig::pcw(),
                        Consistency::ReleaseConsistency,
                        NetworkKind::Mesh, 64),
             2.0});
    } else if (name == "uniform-ocean") {
        def.points.push_back(
            {"ocean", makeParams(ProtocolConfig::pcw()), 2.0});
    } else if (name == "observed-stress-64") {
        MachineParams p = makeParams(ProtocolConfig::pcwm());
        p.numProcs = 64;
        p.directory.parseSpec("limptr4B");
        def.points.push_back({"stress", p, 8.0});
        def.observers = obsAll;
    } else if (name == "paper-sweep") {
        // bench/fig2_exectime_rc.cc under cpxbench --smoke.
        const ProtocolConfig protocols[] = {
            ProtocolConfig::basic(), ProtocolConfig::p(),
            ProtocolConfig::m(),     ProtocolConfig::cw(),
            ProtocolConfig::pcw(),   ProtocolConfig::pm(),
            ProtocolConfig::cwm(),   ProtocolConfig::pcwm()};
        for (const std::string &app : paperApplications()) {
            for (const ProtocolConfig &proto : protocols) {
                MachineParams p = makeParams(proto);
                p.numProcs = 8;
                def.points.push_back({app, p, 0.1});
            }
        }
    } else {
        fatal("unknown workload '%s' (mesh-ocean, uniform-ocean, "
              "observed-stress-64, paper-sweep)",
              name.c_str());
    }
    return def;
}

unsigned
parseObservers(const std::string &set, unsigned defaults)
{
    if (set == "default")
        return defaults;
    if (set == "none")
        return 0;
    if (set == "attrib")
        return obsAttrib;
    if (set == "sampler")
        return obsSampler;
    if (set == "tracer")
        return obsTracer;
    if (set == "checker")
        return obsChecker;
    if (set == "all")
        return obsAll;
    fatal("bad --observers '%s' (default, none, attrib, sampler, "
          "tracer, checker, all)",
          set.c_str());
}

std::uint64_t
fnv1a64(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Sum the stats dump's numeric "component.stat value" lines with the
 * node/processor index dropped ("node12.flc.readHits" counts toward
 * "node.flc.readHits"), so per-layer counters come from the dump —
 * the stable interface — rather than from component accessors.
 */
void
sumDump(const std::string &dump, std::map<std::string, double> &sums)
{
    std::size_t pos = 0;
    while (pos < dump.size()) {
        std::size_t eol = dump.find('\n', pos);
        if (eol == std::string::npos)
            eol = dump.size();
        const std::string line = dump.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        const std::string value = line.substr(space + 1);
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (value.empty() || *end != '\0')
            continue;
        std::string key = line.substr(0, space);
        const std::size_t dot = key.find('.');
        std::size_t digits = dot;
        while (digits > 0 && key[digits - 1] >= '0' &&
               key[digits - 1] <= '9')
            --digits;
        key.erase(digits, dot - digits);
        sums[key] += v;
    }
}

/** Everything one repetition reports, summed over its points. */
struct Totals
{
    bool verified = true;
    std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a-64 basis
    std::uint64_t execTime = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t procTicks = 0;  //!< processors x execTime
    std::uint64_t slabRounds = 0;
    std::uint64_t crossMessages = 0;
    std::uint64_t lookahead = 0;
    double setupSeconds = 0;
    double wallSeconds = 0;
    Histogram readMiss{SlcController::latencyBucketWidth,
                       SlcController::latencyBucketCount};
    std::map<std::string, double> dump;
};

/**
 * One point from System construction to the stats dump, with a span
 * around every call into the simulator.
 */
void
runPoint(const Point &pt, unsigned threads, unsigned observers,
         std::uint64_t seed, SpanLog &log, Totals &t)
{
    // Declared before the root span so that they are destroyed after
    // it closes: teardown is not part of the measured point. The
    // sinks outlive the System that points at them; the checker and
    // the sampler die before the System they reference.
    std::unique_ptr<TraceSink> tracer;
    std::unique_ptr<AttribSink> attrib;
    std::unique_ptr<System> sys;
    std::unique_ptr<CoherenceChecker> checker;
    std::unique_ptr<Workload> workload;
    MetricRegistry registry;
    std::unique_ptr<IntervalSampler> sampler;

    SpanLog::Scope point(log, "point");
    const unsigned n = pt.params.numProcs;
    {
        SpanLog::Scope s(log, "core.ctor");
        sys = std::make_unique<System>(pt.params, threads);
    }
    {
        SpanLog::Scope s(log, "obs.install");
        if (observers & obsTracer) {
            tracer = std::make_unique<TraceSink>(n);
            sys->setTracer(tracer.get());
        }
        if (observers & obsAttrib) {
            attrib = std::make_unique<AttribSink>(n);
            sys->setAttrib(attrib.get());
        }
        if (observers & obsChecker) {
            CoherenceChecker::Options opts;
            opts.failFast = true;
            checker = std::make_unique<CoherenceChecker>(*sys, opts);
        }
    }
    {
        SpanLog::Scope s(log, "workloads.setup");
        workload = makeWorkload(pt.app, pt.scale, seed);
        workload->setup(*sys);
    }
    if (observers & obsSampler) {
        // Armed after setup, as runWorkload does, so the first window
        // starts at tick 0.
        SpanLog::Scope s(log, "obs.install");
        sys->registerMetrics(registry);
        sampler = std::make_unique<IntervalSampler>(sys->eq(), registry,
                                                    samplerInterval);
        System *system = sys.get();
        sampler->start(
            [system] { return system->allProcessorsFinished(); });
    }

    Tick exec_time = 0;
    std::uint64_t run_start = 0;
    {
        SpanLog::Scope s(log, "core.run");
        run_start = s.span().start;
        Workload *w = workload.get();
        exec_time = sys->run(
            [w](Processor &p, unsigned id) { w->parallel(p, id); });
    }
    {
        SpanLog::Scope s(log, "core.flush");
        sys->flushFunctionalState();
    }
    {
        SpanLog::Scope s(log, "workloads.verify");
        t.verified = workload->verify(*sys) && t.verified;
    }
    if (checker) {
        SpanLog::Scope s(log, "check.quiescent");
        checker->checkQuiescent();  // panics on a violation
    }
    RunResult r;
    {
        SpanLog::Scope s(log, "core.collect");
        r = collectStats(*sys, exec_time);
    }
    if (attrib) {
        SpanLog::Scope s(log, "obs.attrib_aggregate");
        System *system = sys.get();
        r.attribution = aggregateAttribution(
            *attrib, [system](NodeId src, NodeId dst) {
                return system->net().hops(src, dst);
            });
    }
    std::string dump;
    {
        SpanLog::Scope s(log, "core.stats_dump");
        dump = formatSystemStats(*sys);
        t.digest = fnv1a64(dump, t.digest);
    }

    t.setupSeconds += (run_start - point.span().start) * 1e-9;
    t.wallSeconds += (cpxperf::nowNs() - point.span().start) * 1e-9;
    t.execTime += exec_time;
    t.eventsExecuted += r.eventsExecuted;
    t.procTicks += std::uint64_t{n} * exec_time;
    t.slabRounds += r.slabRounds;
    t.crossMessages += r.crossMessages;
    t.lookahead = std::max<std::uint64_t>(t.lookahead, r.lookahead);
    t.readMiss.merge(r.readMissLatency);
    sumDump(dump, t.dump);
}

/** Minimal single-line JSON object writer. */
class JsonLine
{
  public:
    void
    raw(const std::string &key, const std::string &value)
    {
        text += first ? "{" : ", ";
        first = false;
        text += "\"" + key + "\": " + value;
    }
    void
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        raw(key, buf);
    }
    void
    u64(const std::string &key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }
    void str(const std::string &key, const std::string &v)
    {
        raw(key, "\"" + v + "\"");
    }
    std::string close() const { return (first ? "{" : text) + "}"; }

  private:
    std::string text;
    bool first = true;
};

std::string
spansJson(const SpanLog &log)
{
    std::string out = "[";
    for (const SpanLog::Span &s : log.spans()) {
        if (out.size() > 1)
            out += ", ";
        out += "[\"" + std::string(s.name) + "\", " +
               std::to_string(s.start) + ", " + std::to_string(s.end) +
               ", " + std::to_string(s.parent) + "]";
    }
    return out + "]";
}

std::string
metricsJson(const cpxperf::Metrics &metrics)
{
    JsonLine obj;
    for (const auto &[name, value] : metrics)
        obj.num(name, value);
    return obj.close();
}

/** --spawn: see the file comment. */
int
spawnMain(char **argv)
{
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("cpxperf --spawn: fork");
        return 127;
    }
    if (pid == 0) {
        execvp(argv[0], argv);
        std::perror("cpxperf --spawn: exec");
        _exit(127);
    }
    int status = 0;
    struct rusage usage = {};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("cpxperf --spawn: wait4");
            return 127;
        }
    }
    auto seconds = [](const timeval &tv) {
        return tv.tv_sec + tv.tv_usec * 1e-6;
    };
    std::fprintf(stderr, "\nrusage %.6f %.6f %ld\n",
                 seconds(usage.ru_utime), seconds(usage.ru_stime),
                 usage.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 2 && std::strcmp(argv[1], "--spawn") == 0)
        return spawnMain(argv + 2);

    std::string one;
    bool probes = false;
    bool spans = false;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    double scale = 0;
    std::string observer_set = "default";

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--one=", 6) == 0)
            one = arg + 6;
        else if (std::strcmp(arg, "--probes") == 0)
            probes = true;
        else if (std::strcmp(arg, "--spans") == 0)
            spans = true;
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            seed = parseU64(arg + 7, "--seed");
        else if (std::strncmp(arg, "--threads=", 10) == 0)
            threads = parsePositiveUnsigned(arg + 10, "--threads");
        else if (std::strncmp(arg, "--scale=", 8) == 0)
            scale = parsePositiveDouble(arg + 8, "--scale");
        else if (std::strncmp(arg, "--observers=", 12) == 0)
            observer_set = arg + 12;
        else
            fatal("unknown option '%s' (see perf/cpxperf.cc)", arg);
    }
    if (probes == !one.empty())
        fatal("give exactly one of --one=WORKLOAD and --probes");

    SpanLog log;
    JsonLine out;
    bool verified = true;
    if (probes) {
        cpxperf::Metrics metrics;
        cpxperf::runProbes(log, metrics);
        out.raw("probes", metricsJson(metrics));
    } else {
        WorkloadDef def = defineWorkload(one);
        const unsigned observers =
            parseObservers(observer_set, def.observers);
        Totals t;
        for (Point &pt : def.points) {
            if (scale > 0)
                pt.scale = scale;
            runPoint(pt, threads, observers, seed, log, t);
        }

        char digest[17];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(t.digest));
        out.str("workload", one);
        out.u64("seed", seed);
        out.u64("threads", threads);
        out.str("observers", observer_set);
        verified = t.verified;
        out.raw("verified", verified ? "true" : "false");
        out.str("digest", digest);
        out.u64("execTime", t.execTime);
        out.u64("eventsExecuted", t.eventsExecuted);
        out.num("wall_s", t.wallSeconds);
        out.num("setup_s", t.setupSeconds);
        out.u64("procTicks", t.procTicks);
        out.u64("slabRounds", t.slabRounds);
        out.u64("crossMessages", t.crossMessages);
        out.u64("lookahead", t.lookahead);
        out.num("readMissP50", t.readMiss.percentile(0.50));
        out.num("readMissP99", t.readMiss.percentile(0.99));

        cpxperf::Metrics phases;
        for (const SpanLog::Span &s : log.spans()) {
            bool seen = false;
            for (const auto &entry : phases)
                seen = seen || entry.first == s.name;
            if (!seen)
                phases.emplace_back(s.name, log.seconds(s.name));
        }
        out.raw("phases", metricsJson(phases));
        cpxperf::Metrics dump(t.dump.begin(), t.dump.end());
        out.raw("dump", metricsJson(dump));
    }
    if (spans)
        out.raw("spans", spansJson(log));
    std::printf("%s\n", out.close().c_str());
    return verified ? 0 : 1;
}
