#include "bench/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <mutex>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/attrib.hh"
#include "sim/parse.hh"

namespace cpx::bench
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

std::string
networkName(const MachineParams &params)
{
    if (params.networkKind == NetworkKind::Uniform)
        return "uniform";
    return "mesh" + std::to_string(params.meshLinkBits);
}

const char *
consistencyName(const MachineParams &params)
{
    return params.consistency == Consistency::SequentialConsistency
               ? "SC"
               : "RC";
}

// --- JSON output -----------------------------------------------------------
//
// Every document this file writes is appended into one std::string: no
// streams, no per-field temporaries.

/** Append @p s as a quoted, escaped JSON string. */
void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * Append a JSON value: an integer as an exact decimal token, a double
 * as printf's %.17g (which round-trips it exactly), a bool, a string,
 * or a sequence of them.
 */
template <class V>
void
appendValue(std::string &out, const V &v)
{
    if constexpr (std::is_same_v<V, double>) {
        // JSON has no infinities or NaNs; the stats never produce
        // them, but never emit an unparseable document if one slips
        // through.
        char buf[32];
        if (std::isfinite(v))
            out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                          std::chars_format::general, 17)
                                .ptr);
        else
            out += "null";
    } else if constexpr (std::is_same_v<V, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<V>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    } else if constexpr (std::is_convertible_v<V, std::string_view>) {
        appendString(out, v);
    } else {
        out += '[';
        for (const auto &item : v) {
            if (out.back() != '[')
                out += ',';
            appendValue(out, item);
        }
        out += ']';
    }
}

/** Append `"key":`, after a comma unless it opens its object. */
void
appendKey(std::string &out, const char *key)
{
    if (out.back() != '{')
        out += ',';
    out += '"';
    out += key;
    out += "\":";
}

/** Append `"key":value`. */
template <class V>
void
appendMember(std::string &out, const char *key, const V &v)
{
    appendKey(out, key);
    appendValue(out, v);
}

/** write(2) the whole buffer, riding out EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Atomically replace @p path with @p content: write "<path><suffix>",
 * fsync it, then rename() into place, so readers never observe a
 * torn file. Returns false and fills @p error on any failure (the
 * temp file is removed).
 */
bool
atomicWriteFile(const std::string &path, const std::string &content,
                const std::string &suffix, std::string &error)
{
    const std::string tmp = path + suffix;
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        error = "cannot write '" + tmp + "': " + std::strerror(errno);
        return false;
    }
    bool ok =
        std::fwrite(content.data(), 1, content.size(), file) ==
            content.size() &&
        std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
    ok = (std::fclose(file) == 0) && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0)
        ok = false;
    if (!ok) {
        error = "atomic write to '" + path +
                "' failed: " + std::strerror(errno);
        std::remove(tmp.c_str());
    }
    return ok;
}

/** 64-bit FNV-1a over @p s. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// --- fault-injection synthetic points (process isolation only) -------------
//
// Reserved app names the forked worker intercepts before touching the
// simulator, used by `cpxbench --self-test-faults` and the isolation
// tests to prove the supervisor survives every failure class. They
// never reach makeWorkload() in-process: an unknown name there is a
// fatal() (by design — the fast path cannot survive a real crash).

constexpr const char *faultAppCrash = "__crash";        // SIGABRT
constexpr const char *faultAppExit = "__exit";          // _exit(9)
constexpr const char *faultAppHang = "__hang";          // never returns
constexpr const char *faultAppGarbage = "__garbage";    // bad output
constexpr const char *faultAppFlaky = "__flaky";        // fails once
constexpr const char *faultAppUnverified = "__unverified";

/** Marker-file env var driving faultAppFlaky (see runWorkerChild). */
constexpr const char *flakyMarkerEnv = "CPX_FLAKY_MARKER";

/**
 * Run one real (non-synthetic) point on the calling thread and
 * classify the outcome: Ok, or InvariantFailure when the simulation
 * completed but failed verification.
 */
SweepResult
executeRealPoint(const SweepPoint &point, Tick sample_interval,
                 unsigned sim_threads, bool attrib)
{
    SweepResult res;
    res.point = point;
    res.attempts = 1;
    auto start = SteadyClock::now();
    System sys(point.params, sim_threads);
    std::unique_ptr<AttribSink> attrib_sink;
    if (attrib) {
        attrib_sink = std::make_unique<AttribSink>(point.params.numProcs);
        sys.setAttrib(attrib_sink.get());
    }
    auto w = makeWorkload(point.app, point.scale, point.seed);
    res.run = runWorkload(sys, *w, maxTick, sample_interval);
    std::chrono::duration<double> elapsed = SteadyClock::now() - start;
    res.hostSeconds = elapsed.count();
    if (res.run.verified) {
        res.status = PointStatus::Ok;
    } else {
        res.status = PointStatus::InvariantFailure;
        res.error = "failed verification";
    }
    return res;
}

/**
 * Worker-subprocess body: run the point (or act out its synthetic
 * fault), write its record as one line to @p fd, and _exit. Never
 * returns. Runs straight after fork() from the single-threaded
 * supervisor, so arbitrary library code is safe here.
 */
[[noreturn]] void
runWorkerChild(const SweepPoint &point, Tick sample_interval,
               unsigned sim_threads, bool attrib, int fd,
               const std::string &hash, unsigned attempt)
{
    SweepPoint run_point = point;
    bool force_unverified = false;
    if (point.app == faultAppCrash) {
        std::abort();
    } else if (point.app == faultAppExit) {
        _exit(9);
    } else if (point.app == faultAppHang) {
        for (;;)
            ::pause();
    } else if (point.app == faultAppGarbage) {
        const char garbage[] = "** this is not a record **\n";
        writeAll(fd, garbage, sizeof(garbage) - 1);
        _exit(0);
    } else if (point.app == faultAppFlaky) {
        // Transient failure: crash while the marker file is absent,
        // creating it on the way down so the retry succeeds.
        const char *marker = std::getenv(flakyMarkerEnv);
        if (!marker)
            _exit(9);
        if (::access(marker, F_OK) != 0) {
            int mfd = ::open(marker, O_CREAT | O_WRONLY, 0644);
            if (mfd >= 0)
                ::close(mfd);
            std::abort();
        }
        run_point.app = "migratory";
    } else if (point.app == faultAppUnverified) {
        run_point.app = "migratory";
        force_unverified = true;
    }

    SweepResult res = executeRealPoint(run_point, sample_interval,
                                       sim_threads, attrib);
    res.point = point;
    res.configHash = hash;
    res.attempts = attempt;
    if (force_unverified) {
        res.run.verified = false;
        res.status = PointStatus::InvariantFailure;
        res.error = "self-test: forced verification failure";
    }
    std::string line;
    appendRecord(line, res);
    line += '\n';
    writeAll(fd, line.data(), line.size());
    ::close(fd);
    _exit(0);
}

/** Capped exponential backoff before retry @p attempt (1-based). */
double
backoffSeconds(unsigned attempt)
{
    double d = 0.25 * static_cast<double>(
                          1u << std::min(attempt - 1, 4u));
    return std::min(d, 4.0);
}

/** Host workers for a batch of @p points: --jobs, capped by the batch. */
unsigned
workerCount(const Options &opts, std::size_t points)
{
    unsigned jobs = opts.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(jobs, points));
}

/**
 * Per-point completion reporting: a live one-line ticker on a
 * terminal, one plain line per point otherwise (CI logs), with an ETA
 * extrapolated from the mean host cost of the points completed so far
 * — coarse under a heterogeneous grid, but it replaces a silent
 * multi-minute gap. done() may be called from several threads.
 */
class Progress
{
  public:
    explicit Progress(std::size_t total) : total(total) {}

    void
    done(const SweepResult &r)
    {
        std::lock_guard<std::mutex> hold(mutex);
        ++completed;
        std::chrono::duration<double> elapsed =
            SteadyClock::now() - start;
        double eta = elapsed.count() / completed * (total - completed);
        std::fprintf(stderr, "%s[%zu/%zu] %s %s%s%s | ETA %.0fs%s",
                     tty ? "\r\033[K" : "", completed, total,
                     r.point.tag.empty() ? "point" : r.point.tag.c_str(),
                     r.point.app.c_str(), r.ok() ? "" : " !",
                     r.ok() ? "" : pointStatusName(r.status), eta,
                     tty && completed != total ? "" : "\n");
    }

    std::size_t count() const { return completed; }

  private:
    const std::size_t total;
    const bool tty = isatty(fileno(stderr)) != 0;
    const SteadyClock::time_point start = SteadyClock::now();
    std::mutex mutex;
    std::size_t completed = 0;
};

/** Set by the SIGINT/SIGTERM handler installed during supervision. */
volatile std::sig_atomic_t g_stopRequested = 0;

void
stopRequestHandler(int)
{
    g_stopRequested = 1;
}

} // anonymous namespace

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::NotRun:           return "not-run";
      case PointStatus::Ok:               return "ok";
      case PointStatus::NonzeroExit:      return "exit";
      case PointStatus::Signal:           return "signal";
      case PointStatus::Timeout:          return "timeout";
      case PointStatus::InvariantFailure: return "invariant";
      case PointStatus::Garbage:          return "garbage";
    }
    return "?";
}

bool
pointStatusRetryable(PointStatus status)
{
    // Host-transient failure classes are worth a retry; a failed
    // verification is deterministic simulated behavior and is
    // reported as-is.
    switch (status) {
      case PointStatus::NonzeroExit:
      case PointStatus::Signal:
      case PointStatus::Timeout:
      case PointStatus::Garbage:
        return true;
      default:
        return false;
    }
}

std::string
pointConfigHash(const SweepPoint &point, Tick sample_interval,
                bool attrib)
{
    const MachineParams &p = point.params;
    std::ostringstream key;
    auto d = [](double v) {
        std::string text;
        appendValue(text, v);
        return text;
    };
    // Every field that determines the simulated result, pinned to a
    // versioned layout: changing the simulator's parameter space
    // or the record format should change the salt, invalidating stale
    // caches. --sim-threads is deliberately absent: the parallel
    // kernel is bit-identical at every worker count, so cached results
    // are interchangeable across thread configurations.
    key << "cpx-point-3|" << point.app << '|' << d(point.scale) << '|'
        << point.seed << '|' << sample_interval << '|' << p.numProcs
        << '|' << p.blockBytes << '|' << p.pageBytes << '|'
        << p.flcBytes << '|' << p.flcHitLatency << '|'
        << p.flcFillLatency << '|' << p.flwbEntries << '|'
        << p.slcBytes << '|' << p.slcAccessLatency << '|'
        << p.slwbEntries << '|' << p.busTransferLatency << '|'
        << p.memAccessLatency << '|'
        << static_cast<int>(p.networkKind) << '|'
        << p.uniformHopLatency << '|' << p.meshLinkBits << '|'
        << p.chaos.enabled << '|' << p.chaos.seed << '|'
        << p.chaos.maxJitter << '|' << p.chaos.spikePercent << '|'
        << p.chaos.preservePairFifo << '|'
        << static_cast<int>(p.consistency) << '|'
        << p.protocol.prefetch << '|' << p.protocol.migratory << '|'
        << p.protocol.compUpdate << '|' << p.prefetchMaxDegree << '|'
        << p.prefetchInitialDegree << '|' << p.prefetchAdaptive << '|'
        << d(p.prefetchHighMark) << '|' << d(p.prefetchLowMark) << '|'
        << p.competitiveThreshold << '|' << p.writeCacheBlocks << '|'
        << p.writeCacheEnabled << '|'
        << static_cast<int>(p.directory.rep) << '|'
        << p.directory.pointers << '|'
        << static_cast<int>(p.directory.overflow) << '|'
        << p.directory.coarseness;
    // Appended only when enabled. Attribution never changes simulated
    // stats, but an attributed result carries a block a plain run
    // cannot supply — reusing a plain cached result for an attributed
    // request would silently drop it.
    if (attrib)
        key << "|attrib";
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key.str())));
    return buf;
}

Options
parseOptions(int argc, char **argv, const ToolFlagFn &tool_flag,
             Options opts)
{
    if (const char *env = std::getenv("CPX_SCALE"))
        opts.scale = parsePositiveDouble(env, "CPX_SCALE");
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0)
            opts.scale = parsePositiveDouble(arg + 8, "--scale");
        else if (std::strncmp(arg, "--procs=", 8) == 0)
            opts.procs = parsePositiveUnsigned(arg + 8, "--procs");
        else if (std::strncmp(arg, "--jobs=", 7) == 0)
            opts.jobs = parsePositiveUnsigned(arg + 7, "--jobs");
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            opts.seed = parseU64(arg + 7, "--seed");
        else if (std::strncmp(arg, "--json=", 7) == 0)
            opts.jsonPath = arg + 7;
        else if (std::strncmp(arg, "--sample-interval=", 18) == 0)
            opts.sampleInterval =
                parseU64(arg + 18, "--sample-interval");
        else if (std::strcmp(arg, "--attrib") == 0)
            opts.attrib = true;
        else if (std::strncmp(arg, "--sim-threads=", 14) == 0)
            opts.simThreads =
                parsePositiveUnsigned(arg + 14, "--sim-threads");
        else if (std::strncmp(arg, "--isolate=", 10) == 0) {
            const char *mode = arg + 10;
            if (std::strcmp(mode, "none") == 0)
                opts.isolate = IsolateMode::None;
            else if (std::strcmp(mode, "process") == 0)
                opts.isolate = IsolateMode::Process;
            else
                fatal("bad --isolate mode '%s' (use none|process)",
                      mode);
        } else if (std::strncmp(arg, "--timeout=", 10) == 0)
            opts.timeoutSec =
                parsePositiveDouble(arg + 10, "--timeout");
        else if (std::strncmp(arg, "--retries=", 10) == 0)
            opts.retries = static_cast<unsigned>(
                parseU64(arg + 10, "--retries"));
        else if (std::strncmp(arg, "--journal=", 10) == 0)
            opts.journalPath = arg + 10;
        else if (std::strncmp(arg, "--resume=", 9) == 0) {
            // Resuming implies continuing the same journal so the
            // second run's completions land in the same file.
            opts.resumePath = arg + 9;
            if (opts.journalPath.empty())
                opts.journalPath = opts.resumePath;
        } else if (std::strncmp(arg, "--cache=", 8) == 0)
            opts.cachePath = arg + 8;
        else if (!tool_flag || !tool_flag(arg, opts))
            fatal("unknown option '%s' (use --scale=F --procs=N "
                  "--jobs=N --seed=N --json=PATH "
                  "--sample-interval=N --attrib --sim-threads=N "
                  "--isolate=none|process "
                  "--timeout=SECS --retries=N --journal=PATH "
                  "--resume=PATH --cache=DIR)",
                  arg);
    }
    // Journaling and result reuse work in both modes; a deadline
    // does not — an in-process point cannot be killed safely.
    if (opts.isolate == IsolateMode::None && opts.timeoutSec > 0)
        fatal("--timeout requires --isolate=process");
    return opts;
}

std::string
describePoint(const SweepPoint &point)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s under %s / %s / %s / %u procs "
                  "(scale %.2f, seed %llu)",
                  point.app.c_str(),
                  point.params.protocol.name().c_str(),
                  consistencyName(point.params),
                  networkName(point.params).c_str(),
                  point.params.numProcs, point.scale,
                  static_cast<unsigned long long>(point.seed));
    return buf;
}

SweepRunner::SweepRunner(const Options &opts_in) : opts(opts_in) {}

SweepRunner::~SweepRunner()
{
    if (journalFd >= 0)
        ::close(journalFd);
}

std::size_t
SweepRunner::add(const std::string &app, MachineParams params,
                 const std::string &tag, unsigned procs)
{
    params.numProcs = procs ? procs : opts.procs;
    SweepPoint point{app, params, tag, opts.scale, opts.seed};
    queued.push_back(std::move(point));
    return done.size() + queued.size() - 1;
}

void
SweepRunner::loadResumeJournal()
{
    if (opts.resumePath.empty() || resumeLoaded)
        return;
    resumeLoaded = true;
    JournalLoad load = loadJournal(opts.resumePath);
    resumeByHash = std::move(load.byHash);
    if (load.quarantined)
        std::fprintf(stderr,
                     "cpxbench: %zu corrupt journal line(s) in %s "
                     "quarantined to %s\n",
                     load.quarantined, opts.resumePath.c_str(),
                     load.quarantineFile.c_str());
    if (load.entries)
        std::fprintf(stderr,
                     "cpxbench: resume journal %s: %zu completed "
                     "point(s) loaded\n",
                     opts.resumePath.c_str(), load.entries);
}

void
SweepRunner::journalAppend(const SweepResult &res)
{
    if (opts.journalPath.empty())
        return;
    std::lock_guard<std::mutex> hold(journalMutex);
    if (journalFd < 0) {
        journalFd = ::open(opts.journalPath.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (journalFd < 0)
            fatal("cannot open journal '%s': %s",
                  opts.journalPath.c_str(), std::strerror(errno));
    }
    std::string line;
    appendRecord(line, res);
    line += '\n';
    // Durability before ack: the record must be on disk before the
    // point counts as done, or a crash right after could leave a
    // resumed run believing less than it had finished (safe) — but
    // never more (unsafe).
    if (!writeAll(journalFd, line.data(), line.size()) ||
        ::fsync(journalFd) != 0)
        fatal("journal write to '%s' failed: %s",
              opts.journalPath.c_str(), std::strerror(errno));
}

void
SweepRunner::cacheStore(const SweepResult &res)
{
    if (opts.cachePath.empty() || res.status != PointStatus::Ok)
        return;
    ::mkdir(opts.cachePath.c_str(), 0755); // EEXIST is fine
    std::string path =
        opts.cachePath + "/" + res.configHash + ".json";
    std::string record, error;
    appendRecord(record, res);
    record += '\n';
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                  static_cast<long>(::getpid()));
    if (!atomicWriteFile(path, record, suffix, error))
        std::fprintf(stderr, "cpxbench: cache store failed: %s\n",
                     error.c_str());
}

bool
SweepRunner::cacheLookup(const std::string &hash,
                         SweepResult &out) const
{
    if (opts.cachePath.empty())
        return false;
    std::string path = opts.cachePath + "/" + hash + ".json";
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::string line;
    if (!std::getline(file, line))
        return false;
    std::string error;
    SweepResult parsed;
    if (!readRecord(line, parsed, error) ||
        parsed.status != PointStatus::Ok || parsed.configHash != hash) {
        std::fprintf(stderr,
                     "cpxbench: ignoring bad cache entry %s%s%s\n",
                     path.c_str(), error.empty() ? "" : ": ",
                     error.c_str());
        return false;
    }
    out = std::move(parsed);
    out.source = ResultSource::Cache;
    return true;
}

std::size_t
SweepRunner::failedCount() const
{
    return std::count_if(done.begin(), done.end(),
                         [](const SweepResult &r) { return !r.ok(); });
}

std::string
SweepRunner::failureSummary() const
{
    std::string out;
    for (const SweepResult &r : done) {
        if (r.ok())
            continue;
        out += "\n  [" + std::string(pointStatusName(r.status)) +
               "] " + describePoint(r.point);
        if (!r.error.empty())
            out += ": " + r.error;
    }
    return out;
}

void
SweepRunner::runAll()
{
    if (queued.empty())
        return;
    loadResumeJournal();

    auto wall_start = SteadyClock::now();

    std::vector<SweepResult> batch(queued.size());
    std::vector<std::size_t> todo;
    std::size_t reused_journal = 0, reused_cache = 0;
    for (std::size_t i = 0; i < queued.size(); ++i) {
        std::string hash = pointConfigHash(
            queued[i], opts.sampleInterval, opts.attrib);
        auto it = resumeByHash.find(hash);
        if (it != resumeByHash.end()) {
            // The same config can appear under several tags; each
            // position gets a copy re-labelled with its own point.
            batch[i] = it->second;
            batch[i].point = queued[i];
            batch[i].source = ResultSource::Journal;
            ++reused_journal;
            continue;
        }
        SweepResult cached;
        if (cacheLookup(hash, cached)) {
            batch[i] = std::move(cached);
            batch[i].point = queued[i];
            // A cache hit still gets journaled so --resume of this
            // run's journal covers the full suite.
            journalAppend(batch[i]);
            ++reused_cache;
            continue;
        }
        batch[i].point = queued[i];
        batch[i].configHash = std::move(hash);
        todo.push_back(i);
    }
    if (reused_journal || reused_cache)
        std::fprintf(stderr,
                     "cpxbench: reusing %zu journaled and %zu cached "
                     "of %zu point(s); %zu to run\n",
                     reused_journal, reused_cache, queued.size(),
                     todo.size());

    if (!todo.empty()) {
        if (opts.isolate == IsolateMode::Process)
            runBatchProcess(batch, todo);
        else
            runBatchInProcess(batch, todo);
    }

    std::chrono::duration<double> wall =
        SteadyClock::now() - wall_start;
    hostSeconds += wall.count();

    if (interruptedFlag) {
        // Keep whatever finished (it is journaled); callers check
        // interrupted() and skip rendering/JSON.
        for (SweepResult &r : batch)
            done.push_back(std::move(r));
        queued.clear();
        return;
    }

    for (SweepResult &r : batch)
        done.push_back(std::move(r));
    queued.clear();
    // The historical in-process contract: a failed point is fatal,
    // after every point has run, naming each failure so it can be
    // reproduced alone (an earlier batch's failure was already fatal).
    // Process isolation records failures as data instead; callers
    // consult anyFailed() for the exit policy.
    if (opts.isolate == IsolateMode::None && anyFailed())
        fatal("sweep point(s) failed verification:%s",
              failureSummary().c_str());
}

void
SweepRunner::runBatchInProcess(std::vector<SweepResult> &batch,
                               const std::vector<std::size_t> &todo)
{
    std::atomic<std::size_t> next{0};
    Progress progress(todo.size());

    auto worker = [&]() {
        for (;;) {
            std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                return;
            std::size_t i = todo[t];
            SweepResult res = executeRealPoint(
                queued[i], opts.sampleInterval, opts.simThreads,
                opts.attrib);
            res.point = queued[i];
            res.configHash = batch[i].configHash;
            journalAppend(res);
            cacheStore(res);
            batch[i] = std::move(res);
            progress.done(batch[i]);
        }
    };

    const unsigned jobs = workerCount(opts, todo.size());
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    executed += todo.size();
}

void
SweepRunner::runBatchProcess(std::vector<SweepResult> &batch,
                             const std::vector<std::size_t> &todo)
{
    // One forked worker per in-flight point; the supervisor stays
    // single-threaded (fork(2) from a multi-threaded parent can
    // deadlock on locks held by other threads), so parallelism comes
    // entirely from the worker processes.
    struct Pending
    {
        std::size_t index;
        unsigned attempt;
        SteadyClock::time_point readyAt;
    };
    struct Worker
    {
        pid_t pid;
        int fd;
        std::size_t index;
        unsigned attempt;
        std::string buf;
        SteadyClock::time_point started;
        SteadyClock::time_point deadline;
        bool timedOut = false;
    };

    std::deque<Pending> pending;
    for (std::size_t i : todo)
        pending.push_back({i, 1, SteadyClock::now()});
    std::vector<Worker> live;
    const unsigned jobs = workerCount(opts, todo.size());

    // SIGINT/SIGTERM request a graceful stop: no new dispatches,
    // live workers killed and reaped, journal already durable. No
    // SA_RESTART, so a signal wakes the poll() below immediately.
    struct sigaction sa{}, old_int{}, old_term{};
    sa.sa_handler = stopRequestHandler;
    sigemptyset(&sa.sa_mask);
    g_stopRequested = 0;
    sigaction(SIGINT, &sa, &old_int);
    sigaction(SIGTERM, &sa, &old_term);

    Progress progress(todo.size());

    auto spawn = [&](const Pending &p) {
        int fds[2];
        if (::pipe(fds) != 0)
            fatal("pipe: %s", std::strerror(errno));
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            // The child dies on its own signals; the parent owns
            // graceful-stop handling.
            std::signal(SIGINT, SIG_DFL);
            std::signal(SIGTERM, SIG_DFL);
            runWorkerChild(queued[p.index], opts.sampleInterval,
                           opts.simThreads, opts.attrib, fds[1],
                           batch[p.index].configHash, p.attempt);
        }
        ::close(fds[1]);
        int flags = ::fcntl(fds[0], F_GETFL, 0);
        ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
        auto now = SteadyClock::now();
        auto deadline =
            opts.timeoutSec > 0
                ? now + std::chrono::duration_cast<
                            SteadyClock::duration>(
                            std::chrono::duration<double>(
                                opts.timeoutSec))
                : SteadyClock::time_point::max();
        live.push_back(Worker{pid, fds[0], p.index, p.attempt, {},
                              now, deadline, false});
    };

    // Reap the worker, classify the outcome, and either re-queue the
    // point for a retry or finalize it (journal + cache + batch).
    auto finalize = [&](Worker &w) {
        int wstatus = 0;
        while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {}
        ::close(w.fd);
        std::chrono::duration<double> attempt_secs =
            SteadyClock::now() - w.started;

        SweepResult res;
        res.point = queued[w.index];
        res.configHash = batch[w.index].configHash;
        res.attempts = w.attempt;
        res.hostSeconds = attempt_secs.count();
        if (w.timedOut) {
            res.status = PointStatus::Timeout;
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "timed out after %.1fs", opts.timeoutSec);
            res.error = buf;
        } else if (WIFSIGNALED(wstatus)) {
            res.status = PointStatus::Signal;
            res.error = std::string("killed by signal ") +
                        std::to_string(WTERMSIG(wstatus));
        } else if (WIFEXITED(wstatus) &&
                   WEXITSTATUS(wstatus) != 0) {
            res.status = PointStatus::NonzeroExit;
            res.error = "exited with status " +
                        std::to_string(WEXITSTATUS(wstatus));
        } else {
            // Clean exit: the single record line is the result.
            SweepResult parsed;
            std::string perr;
            if (readRecord(w.buf, parsed, perr)) {
                res.run = std::move(parsed.run);
                res.status = parsed.status;
                res.error = parsed.error;
                res.hostSeconds = parsed.hostSeconds;
            } else {
                res.status = PointStatus::Garbage;
                res.error = "unparseable worker output: " + perr;
            }
        }

        if (!res.ok() && pointStatusRetryable(res.status) &&
            w.attempt <= opts.retries) {
            double delay = backoffSeconds(w.attempt);
            std::fprintf(stderr,
                         "cpxbench: point '%s' %s (%s); retry %u/%u "
                         "in %.2gs\n",
                         queued[w.index].app.c_str(),
                         pointStatusName(res.status),
                         res.error.c_str(), w.attempt, opts.retries,
                         delay);
            pending.push_back(
                {w.index, w.attempt + 1,
                 SteadyClock::now() +
                     std::chrono::duration_cast<
                         SteadyClock::duration>(
                         std::chrono::duration<double>(delay))});
            return;
        }

        journalAppend(res);
        cacheStore(res);
        ++executed;
        batch[w.index] = std::move(res);
        progress.done(batch[w.index]);
    };

    while ((!pending.empty() || !live.empty()) && !g_stopRequested) {
        auto now = SteadyClock::now();

        // Dispatch pending points whose backoff has elapsed.
        while (live.size() < jobs && !pending.empty()) {
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it)
                if (it->readyAt <= now) {
                    ready = it;
                    break;
                }
            if (ready == pending.end())
                break;
            Pending p = *ready;
            pending.erase(ready);
            spawn(p);
        }

        // How long may we sleep? Until the nearest worker deadline
        // or pending retry, capped so ticker math stays fresh.
        auto wake = now + std::chrono::milliseconds(500);
        for (const Worker &w : live)
            wake = std::min(wake, w.deadline);
        for (const Pending &p : pending)
            if (live.size() < jobs)
                wake = std::min(wake, p.readyAt);
        int timeout_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   wake - now)
                   .count()));

        if (live.empty()) {
            ::poll(nullptr, 0, timeout_ms);
            continue;
        }

        std::vector<pollfd> fds(live.size());
        for (std::size_t i = 0; i < live.size(); ++i)
            fds[i] = pollfd{live[i].fd, POLLIN, 0};
        int rc = ::poll(fds.data(), fds.size(), timeout_ms);
        if (rc < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));

        // Drain readable pipes; EOF means the worker is done.
        for (std::size_t i = 0; i < live.size();) {
            bool eof = false;
            if (rc > 0 && (fds[i].revents & (POLLIN | POLLHUP))) {
                char buf[65536];
                for (;;) {
                    ssize_t n = ::read(live[i].fd, buf, sizeof(buf));
                    if (n > 0) {
                        live[i].buf.append(buf, n);
                        continue;
                    }
                    if (n == 0)
                        eof = true;
                    break;
                }
            }
            if (eof) {
                finalize(live[i]);
                fds.erase(fds.begin() + i);
                live.erase(live.begin() + i);
            } else {
                ++i;
            }
        }

        // Enforce deadlines: SIGKILL, then let the EOF path reap.
        now = SteadyClock::now();
        for (Worker &w : live) {
            if (!w.timedOut && now >= w.deadline) {
                w.timedOut = true;
                ::kill(w.pid, SIGKILL);
            }
        }
    }

    if (g_stopRequested) {
        interruptedFlag = true;
        for (Worker &w : live) {
            ::kill(w.pid, SIGKILL);
            int wstatus = 0;
            while (::waitpid(w.pid, &wstatus, 0) < 0 &&
                   errno == EINTR) {}
            ::close(w.fd);
        }
        live.clear();
        std::fprintf(stderr,
                     "\ncpxbench: interrupted — %zu/%zu point(s) "
                     "completed%s\n",
                     progress.count(), todo.size(),
                     opts.journalPath.empty()
                         ? ""
                         : "; journaled work is resumable with "
                           "--resume");
    }

    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
}

const SweepResult &
SweepRunner::operator[](std::size_t handle) const
{
    if (handle >= done.size())
        fatal("sweep handle %zu not run yet (did you call "
              "runAll()?)",
              handle);
    return done[handle];
}

// --- the point record --------------------------------------------------------
//
// One JSON object per sweep point, on one line. appendRecord() writes
// it for the sweep JSON's "points" array, the worker pipe, the journal
// and the cache alike; readRecord() reads any of them back. The tables
// below name every scalar RunResult member once, with its block, its
// key and (through the member pointer) its type; the writer and the
// reader are both driven by them. u64s are written as exact integer
// tokens and doubles as %.17g, so a record reads back bit-identical.

namespace
{

/**
 * One scalar member of T under its record key. A member function is a
 * derived value (a miss rate): written for readers of the sweep JSON,
 * and on the way back only checked to be a number.
 */
template <class T>
struct Field
{
    const char *key;
    std::variant<std::uint64_t T::*, std::uint32_t T::*, double T::*,
                 double (T::*)() const>
        member;
};

template <class T>
using Fields = std::type_identity_t<std::span<const Field<T>>>;

const Field<RunResult> breakdownFields[] = {
    {"busy", &RunResult::busy},
    {"readStall", &RunResult::readStall},
    {"writeStall", &RunResult::writeStall},
    {"acquireStall", &RunResult::acquireStall},
    {"releaseStall", &RunResult::releaseStall},
};

const Field<RunResult> missFields[] = {
    {"coldPct", &RunResult::coldMissRate},
    {"cohPct", &RunResult::cohMissRate},
    {"sharedAccesses", &RunResult::sharedAccesses},
    {"coldRead", &RunResult::coldReadMisses},
    {"cohRead", &RunResult::cohReadMisses},
    {"replRead", &RunResult::replReadMisses},
    {"write", &RunResult::writeMissesTotal},
    {"avgReadLatency", &RunResult::avgReadMissLatency},
};

const Field<RunResult> trafficFields[] = {
    {"bytes", &RunResult::netBytes},
    {"messages", &RunResult::netMessages},
};

const Field<RunResult> eventFields[] = {
    {"prefetchesIssued", &RunResult::prefetchesIssued},
    {"prefetchesUseful", &RunResult::prefetchesUseful},
    {"softwarePrefetches", &RunResult::softwarePrefetches},
    {"combinedWrites", &RunResult::combinedWrites},
    {"migratoryDetections", &RunResult::migratoryDetections},
    {"invalidationsSent", &RunResult::invalidationsSent},
};

const Field<RunResult> detailFields[] = {
    {"ownershipRequests", &RunResult::ownershipRequests},
    {"updatesForwarded", &RunResult::updatesForwarded},
    {"counterInvalidations", &RunResult::counterInvalidations},
};

const Field<RunResult> kernelFields[] = {
    {"eventsExecuted", &RunResult::eventsExecuted},
    {"peakPendingEvents", &RunResult::peakPendingEvents},
    {"scheduleAllocs", &RunResult::scheduleAllocs},
    {"slabRounds", &RunResult::slabRounds},
    {"crossMessages", &RunResult::crossMessages},
    {"lookahead", &RunResult::lookahead},
    {"simThreads", &RunResult::simThreads},
};

const Field<RunResult> directoryFields[] = {
    {"overflowBroadcasts", &RunResult::dirOverflowBroadcasts},
    {"pointerEvictions", &RunResult::dirPointerEvictions},
};

/** A latency histogram: its key in "latency", and in "detail" the key
 *  of its sample sum (the gated block carries only the mean). */
struct HistogramField
{
    const char *key;
    const char *sumKey;
    Histogram RunResult::*member;
};

const HistogramField histogramFields[] = {
    {"readMiss", "readMissSum", &RunResult::readMissLatency},
    {"ownership", "ownershipSum", &RunResult::ownershipLatency},
    {"prefetchFill", "prefetchFillSum", &RunResult::prefetchFillLatency},
};

const Field<AttribSegments> segmentFields[] = {
    {"count", &AttribSegments::count},
    {"latency", &AttribSegments::latency},
    {"request", &AttribSegments::request},
    {"dirQueue", &AttribSegments::dirQueue},
    {"dirService", &AttribSegments::dirService},
    {"ownerFetch", &AttribSegments::ownerFetch},
    {"invalFanout", &AttribSegments::invalFanout},
    {"ackCollect", &AttribSegments::ackCollect},
    {"dataReturn", &AttribSegments::dataReturn},
    {"fill", &AttribSegments::fill},
    {"dataHops", &AttribSegments::dataHops},
};

const Field<AttribLockStats> lockFields[] = {
    {"count", &AttribLockStats::count},
    {"latency", &AttribLockStats::latency},
    {"homeQueue", &AttribLockStats::homeQueue},
    {"transfer", &AttribLockStats::transfer},
};

const Field<AttribHomeStats> homeFields[] = {
    {"node", &AttribHomeStats::node},
    {"dirRequests", &AttribHomeStats::dirRequests},
    {"dirWaitTotal", &AttribHomeStats::dirWaitTotal},
    {"dirWaitP99", &AttribHomeStats::dirWaitP99},
    {"lockGrants", &AttribHomeStats::lockGrants},
    {"lockWaitTotal", &AttribHomeStats::lockWaitTotal},
    {"lockWaitP99", &AttribHomeStats::lockWaitP99},
};

const Field<AttribHotSpot> hotSpotFields[] = {
    {"addr", &AttribHotSpot::addr},
    {"home", &AttribHotSpot::home},
    {"count", &AttribHotSpot::count},
    {"totalWait", &AttribHotSpot::totalWait},
    {"p99Wait", &AttribHotSpot::p99Wait},
};

const Field<AttributionResult> attribTotalFields[] = {
    {"matchedTxns", &AttributionResult::matchedTxns},
    {"unmatchedDir", &AttributionResult::unmatchedDir},
    {"matchedLocks", &AttributionResult::matchedLocks},
    {"unmatchedLocks", &AttributionResult::unmatchedLocks},
    {"fanoutTotal", &AttributionResult::fanoutTotal},
    {"fanoutImprecise", &AttributionResult::fanoutImprecise},
};

constexpr unsigned numMsgClasses =
    static_cast<unsigned>(MsgClass::NumClasses);

// --- writer ----------------------------------------------------------------

template <class T>
void
appendFields(std::string &out, const T &obj, Fields<T> fields)
{
    for (const Field<T> &f : fields) {
        std::visit(
            [&](auto member) {
                if constexpr (std::is_member_function_pointer_v<
                                  decltype(member)>)
                    appendMember(out, f.key, (obj.*member)());
                else
                    appendMember(out, f.key, obj.*member);
            },
            f.member);
    }
}

/** `"key":[{...},...]`, one object of @p fields per row. */
template <class T>
void
appendRows(std::string &out, const char *key, const std::vector<T> &rows,
           Fields<T> fields)
{
    appendKey(out, key);
    out += '[';
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out += i ? ",{" : "{";
        appendFields(out, rows[i], fields);
        out += '}';
    }
    out += ']';
}

void
appendLatency(std::string &out, const RunResult &s)
{
    for (const HistogramField &f : histogramFields) {
        const Histogram &h = s.*f.member;
        const Accumulator &a = h.summary();
        appendKey(out, f.key);
        out += '{';
        appendMember(out, "count", a.count());
        appendMember(out, "mean", a.mean());
        appendMember(out, "min", a.min());
        appendMember(out, "max", a.max());
        appendMember(out, "p50", h.percentile(0.50));
        appendMember(out, "p90", h.percentile(0.90));
        appendMember(out, "p99", h.percentile(0.99));
        appendMember(out, "bucketWidth", h.bucketWidth());
        appendMember(out, "overflow", h.overflowCount());
        // Trailing zero buckets are trimmed: the geometry is fixed,
        // so the reader restores them.
        const auto &counts = h.bucketCounts();
        std::size_t last = counts.size();
        while (last > 0 && counts[last - 1] == 0)
            --last;
        appendMember(out, "buckets", std::span(counts.data(), last));
        out += '}';
    }
}

void
appendTimeseries(std::string &out, const RunResult &s)
{
    const MetricTimeSeries &ts = s.timeseries;
    appendMember(out, "interval", ts.interval);
    appendMember(out, "metrics", ts.names);
    appendMember(out, "ticks", ts.ticks);
    // Row-major, one inner array per sampled window; columns follow
    // "metrics" (DESIGN.md §13).
    std::vector<std::span<const std::uint64_t>> rows;
    for (std::size_t row = 0; row < ts.rows(); ++row)
        rows.push_back(std::span(ts.deltas).subspan(
            row * ts.names.size(), ts.names.size()));
    appendMember(out, "deltas", rows);
}

void
appendAttribution(std::string &out, const RunResult &s)
{
    const AttributionResult &ar = s.attribution;
    appendKey(out, "classes");
    out += '{';
    for (unsigned c = 0; c < numAttribClasses; ++c) {
        if (!ar.classes[c].count)
            continue;  // absent rows read back as zero
        appendKey(out, attribClassName(c));
        out += '{';
        appendFields(out, ar.classes[c], segmentFields);
        out += '}';
    }
    out += '}';
    appendKey(out, "locks");
    out += '{';
    appendFields(out, ar.locks, lockFields);
    out += '}';
    appendRows(out, "homes", ar.homes, homeFields);
    appendRows(out, "hotBlocks", ar.hotBlocks, hotSpotFields);
    appendRows(out, "hotLocks", ar.hotLocks, hotSpotFields);
    appendFields(out, ar, attribTotalFields);
}

void
appendDetail(std::string &out, const RunResult &s)
{
    appendMember(out, "classBytes", std::span(s.classBytes));
    appendFields(out, s, detailFields);
    for (const HistogramField &f : histogramFields)
        appendMember(out, f.sumKey, (s.*f.member).summary().sum());
}

// --- reader ----------------------------------------------------------------

bool
fail(std::string &error, std::string what)
{
    error = std::move(what);
    return false;
}

/**
 * Read what appendValue() wrote. Integers must be plain digits that
 * fit @p out's type: no sign, no fraction, no exponent. Doubles must
 * be finite. A vector reads an array, element by element.
 */
template <class V>
bool
readValue(const JsonValue &v, V &out)
{
    if constexpr (std::is_same_v<V, double>) {
        out = v.number;
        return v.kind == JsonValue::Kind::Number && std::isfinite(out);
    } else if constexpr (std::is_same_v<V, bool>) {
        out = v.boolean;
        return v.kind == JsonValue::Kind::Bool;
    } else if constexpr (std::is_same_v<V, std::string>) {
        out = v.text;
        return v.kind == JsonValue::Kind::String;
    } else if constexpr (std::is_integral_v<V>) {
        const char *end = v.text.data() + v.text.size();
        auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
        return v.kind == JsonValue::Kind::Number && ec == std::errc() &&
               ptr == end;
    } else {
        if (v.kind != JsonValue::Kind::Array)
            return false;
        out.resize(v.items.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            if (!readValue(v.items[i], out[i]))
                return false;
        return true;
    }
}

/**
 * Reads the members of one object, counting them, so that complete()
 * can reject a key the writer never writes. The first member that is
 * missing or malformed is named by problem().
 */
struct ObjectReader
{
    const JsonValue &obj;
    std::size_t used = 0;
    const char *bad = nullptr;

    const JsonValue *
    get(const char *key, JsonValue::Kind kind)
    {
        auto it = obj.members.find(key);
        if (it == obj.members.end() || it->second.kind != kind) {
            bad = key;
            return nullptr;
        }
        ++used;
        return &it->second;
    }

    template <class V>
    bool
    value(const char *key, V &out)
    {
        auto it = obj.members.find(key);
        if (it == obj.members.end() || !readValue(it->second, out)) {
            bad = key;
            return false;
        }
        ++used;
        return true;
    }

    template <class T>
    bool
    fields(T &dst, Fields<T> list)
    {
        for (const Field<T> &f : list) {
            bool ok = std::visit(
                [&](auto member) {
                    if constexpr (std::is_member_function_pointer_v<
                                      decltype(member)>) {
                        double derived;
                        return value(f.key, derived);
                    } else {
                        return value(f.key, dst.*member);
                    }
                },
                f.member);
            if (!ok)
                return false;
        }
        return true;
    }

    bool complete() const { return used == obj.members.size(); }

    std::string
    problem() const
    {
        return bad ? std::string("missing or malformed '") + bad + "'"
                   : std::string("unexpected member");
    }
};

/** Read @p v as an object of exactly @p list's members. */
template <class T>
bool
readObject(const JsonValue &v, T &dst, Fields<T> list,
           std::string &error)
{
    ObjectReader r{v};
    return (v.kind == JsonValue::Kind::Object && r.fields(dst, list) &&
            r.complete()) ||
           fail(error, r.problem());
}

template <class T>
bool
readRows(const JsonValue *rows, std::vector<T> &out, Fields<T> list,
         std::string &error)
{
    out.resize(rows->items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        if (!readObject(rows->items[i], out[i], list, error))
            return false;
    return true;
}

bool
readLatency(const JsonValue &v, RunResult &s, std::string &error)
{
    ObjectReader r{v};
    for (const HistogramField &f : histogramFields) {
        const JsonValue *hv = r.get(f.key, JsonValue::Kind::Object);
        if (!hv)
            return fail(error, r.problem());
        Histogram &h = s.*f.member;
        ObjectReader hr{*hv};
        std::uint64_t count, width, overflow;
        double min, max, mean, p50, p90, p99;  // derived: checked only
        std::vector<std::uint64_t> counts;
        if (!hr.value("count", count) || !hr.value("mean", mean) ||
            !hr.value("min", min) || !hr.value("max", max) ||
            !hr.value("p50", p50) || !hr.value("p90", p90) ||
            !hr.value("p99", p99) || !hr.value("bucketWidth", width) ||
            !hr.value("overflow", overflow) ||
            !hr.value("buckets", counts) || !hr.complete())
            return fail(error, std::string(f.key) + ": " + hr.problem());
        // The sum arrives with the "detail" block (readDetail).
        Accumulator acc;
        acc.restore(count, 0.0, min, max);
        if (width != h.bucketWidth() || !h.restore(counts, overflow, acc))
            return fail(error, std::string(f.key) +
                                   ": histogram geometry mismatch");
    }
    return r.complete() || fail(error, r.problem());
}

bool
readTimeseries(const JsonValue &v, RunResult &s, std::string &error)
{
    MetricTimeSeries &ts = s.timeseries;
    ts = MetricTimeSeries{};
    ObjectReader r{v};
    std::vector<std::vector<std::uint64_t>> rows;
    if (!r.value("interval", ts.interval) ||
        !r.value("metrics", ts.names) || !r.value("ticks", ts.ticks) ||
        !r.value("deltas", rows) || !r.complete())
        return fail(error, r.problem());
    if (ts.interval == 0)
        return fail(error, "interval must be > 0");
    // The writer writes only non-empty series.
    if (ts.names.empty() || ts.ticks.empty())
        return fail(error, "no metrics or no rows");
    if (rows.size() != ts.ticks.size())
        return fail(error, std::to_string(rows.size()) +
                               " delta rows but " +
                               std::to_string(ts.ticks.size()) +
                               " ticks");
    for (const std::vector<std::uint64_t> &row : rows) {
        if (row.size() != ts.names.size())
            return fail(error, "ragged delta row");
        ts.deltas.insert(ts.deltas.end(), row.begin(), row.end());
    }
    return true;
}

bool
readAttribution(const JsonValue &v, RunResult &s, std::string &error)
{
    AttributionResult &ar = s.attribution;
    ar = AttributionResult{};
    ar.enabled = true;
    ObjectReader r{v};
    const JsonValue *classes, *locks, *homes, *hot_blocks, *hot_locks;
    if (!(classes = r.get("classes", JsonValue::Kind::Object)) ||
        !(locks = r.get("locks", JsonValue::Kind::Object)) ||
        !(homes = r.get("homes", JsonValue::Kind::Array)) ||
        !(hot_blocks = r.get("hotBlocks", JsonValue::Kind::Array)) ||
        !(hot_locks = r.get("hotLocks", JsonValue::Kind::Array)) ||
        !r.fields(ar, attribTotalFields) || !r.complete())
        return fail(error, r.problem());
    for (const auto &[name, row] : classes->members) {
        unsigned c = 0;
        while (c < numAttribClasses && name != attribClassName(c))
            ++c;
        if (c == numAttribClasses)
            return fail(error, "unknown class '" + name + "'");
        if (!readObject(row, ar.classes[c], segmentFields, error))
            return fail(error, "class '" + name + "': " + error);
        // The writer leaves zero-count rows out.
        if (!ar.classes[c].count)
            return fail(error, "class '" + name + "' has no samples");
    }
    return readObject(*locks, ar.locks, lockFields, error) &&
           readRows(homes, ar.homes, homeFields, error) &&
           readRows(hot_blocks, ar.hotBlocks, hotSpotFields, error) &&
           readRows(hot_locks, ar.hotLocks, hotSpotFields, error);
}

bool
readDetail(const JsonValue &v, RunResult &s, std::string &error)
{
    ObjectReader r{v};
    std::vector<std::uint64_t> bytes;
    if (!r.value("classBytes", bytes) || !r.fields(s, detailFields))
        return fail(error, r.problem());
    if (bytes.size() != numMsgClasses)
        return fail(error, "classBytes has " +
                               std::to_string(bytes.size()) +
                               " entries, expected " +
                               std::to_string(numMsgClasses));
    std::copy(bytes.begin(), bytes.end(), s.classBytes);
    for (const HistogramField &f : histogramFields) {
        double sum;
        if (!r.value(f.sumKey, sum))
            return fail(error, r.problem());
        // Restore the latency histogram again, now with its sum.
        Histogram &h = s.*f.member;
        Accumulator acc = h.summary();
        acc.restore(acc.count(), sum, acc.min(), acc.max());
        std::vector<std::uint64_t> counts = h.bucketCounts();
        h.restore(counts, h.overflowCount(), acc);
    }
    return r.complete() || fail(error, r.problem());
}

/**
 * A block of RunResult members, in record order. A plain block is
 * exactly its fields; the others bring their own codec. An optional
 * block is written only when @c present says so. Gated blocks hold
 * the simulated stats compareToBaseline() holds to the baseline; the
 * ungated ones hold observer output, kernel telemetry and what the
 * gated blocks leave out.
 */
struct StatBlock
{
    const char *key;
    bool gated;
    std::span<const Field<RunResult>> fields;
    void (*write)(std::string &out, const RunResult &s) = nullptr;
    bool (*read)(const JsonValue &v, RunResult &s,
                 std::string &error) = nullptr;
    bool (*present)(const RunResult &s) = nullptr;
};

const StatBlock statBlocks[] = {
    {"breakdown", true, breakdownFields},
    {"misses", true, missFields},
    {"traffic", true, trafficFields},
    {"protocolEvents", true, eventFields},
    {"latency", true, {}, appendLatency, readLatency},
    {"timeseries", true, {}, appendTimeseries, readTimeseries,
     [](const RunResult &s) { return !s.timeseries.empty(); }},
    {"attribution", false, {}, appendAttribution, readAttribution,
     [](const RunResult &s) { return s.attribution.enabled; }},
    // After "latency": reading it completes the histograms.
    {"detail", false, {}, appendDetail, readDetail},
    {"kernel", false, kernelFields},
};

/** Point members outside statBlocks that the baseline gates. */
const char *const gatedPointKeys[] = {"tag", "app", "config", "verified",
                                      "execTime"};

/** The record carries simulated stats: the point ran to completion. */
bool
hasStats(PointStatus status)
{
    return status == PointStatus::Ok ||
           status == PointStatus::InvariantFailure;
}

bool
readPoint(const JsonValue &v, SweepResult &out, std::string &error)
{
    out = SweepResult{};
    RunResult &s = out.run.stats;
    MachineParams &p = out.point.params;
    ObjectReader r{v};
    std::string status;
    const JsonValue *config = r.get("config", JsonValue::Kind::Object);
    const JsonValue *dir = r.get("directory", JsonValue::Kind::Object);
    if (!config || !dir || !r.value("tag", out.point.tag) ||
        !r.value("app", out.point.app) ||
        !r.value("configHash", out.configHash) ||
        !r.value("status", status) ||
        !r.value("attempts", out.attempts) ||
        !r.value("verified", out.run.verified) ||
        !r.value("hostSeconds", out.hostSeconds))
        return fail(error, r.problem());
    // PointStatus runs from NotRun (the default) to Garbage.
    while (pointStatusName(out.status) != status) {
        if (out.status == PointStatus::Garbage)
            return fail(error, "unknown status '" + status + "'");
        out.status = static_cast<PointStatus>(
            static_cast<int>(out.status) + 1);
    }
    if (out.status != PointStatus::Ok && !r.value("error", out.error))
        return fail(error, r.problem());
    const bool stats = hasStats(out.status);

    // Protocol and consistency are RunResult members. The network and
    // the directory representation are checked but not restored.
    ObjectReader c{*config};
    std::string network, rep;
    if (!c.value("protocol", s.protocol) ||
        !c.value("consistency", s.consistency) ||
        !c.value("network", network) || !c.value("procs", p.numProcs) ||
        !c.value("scale", out.point.scale) ||
        !c.value("seed", out.point.seed) ||
        !c.value("slcBytes", p.slcBytes) ||
        !c.value("threshold", p.competitiveThreshold) ||
        !c.value("writeCache", p.writeCacheEnabled) || !c.complete())
        return fail(error, "config: " + c.problem());
    if (!stats)
        s.protocol = s.consistency = std::string();
    ObjectReader d{*dir};
    if (!d.value("rep", rep) || (stats && !d.fields(s, directoryFields)) ||
        !d.complete())
        return fail(error, "directory: " + d.problem());

    if (stats) {
        if (!r.value("execTime", s.execTime))
            return fail(error, r.problem());
        out.run.execTime = s.execTime;
        for (const StatBlock &b : statBlocks) {
            if (b.present && !v.has(b.key))
                continue;
            const JsonValue *block = r.get(b.key, JsonValue::Kind::Object);
            if (!block)
                return fail(error, r.problem());
            bool ok = b.read ? b.read(*block, s, error)
                             : readObject(*block, s, b.fields, error);
            if (!ok)
                return fail(error, std::string(b.key) + ": " + error);
        }
    }
    return r.complete() || fail(error, r.problem());
}

} // anonymous namespace

void
appendRecord(std::string &out, const SweepResult &r)
{
    const MachineParams &p = r.point.params;
    const RunResult &s = r.run.stats;
    const bool stats = hasStats(r.status);
    out += '{';
    appendMember(out, "tag", r.point.tag);
    appendMember(out, "app", r.point.app);
    appendKey(out, "config");
    out += '{';
    appendMember(out, "protocol",
                 stats ? s.protocol : p.protocol.name());
    appendMember(out, "consistency",
                 stats ? s.consistency : consistencyName(p));
    appendMember(out, "network", networkName(p));
    appendMember(out, "procs", p.numProcs);
    appendMember(out, "scale", r.point.scale);
    appendMember(out, "seed", r.point.seed);
    appendMember(out, "slcBytes", p.slcBytes);
    appendMember(out, "threshold", p.competitiveThreshold);
    appendMember(out, "writeCache", p.writeCacheEnabled);
    out += '}';
    // A sibling of the gated blocks, never a member of "config":
    // jsonEquals compares member counts, so a grown "config" would
    // orphan every committed baseline.
    appendKey(out, "directory");
    out += '{';
    appendMember(out, "rep", p.directory.name());
    if (stats)
        appendFields(out, s, directoryFields);
    out += '}';
    appendMember(out, "configHash", r.configHash);
    appendMember(out, "status", pointStatusName(r.status));
    appendMember(out, "attempts", r.attempts);
    if (r.status != PointStatus::Ok)
        appendMember(out, "error", r.error);
    appendMember(out, "verified", stats && r.run.verified);
    if (stats) {
        appendMember(out, "execTime", s.execTime);
        for (const StatBlock &b : statBlocks) {
            if (b.present && !b.present(s))
                continue;
            appendKey(out, b.key);
            out += '{';
            if (b.write)
                b.write(out, s);
            else
                appendFields(out, s, b.fields);
            out += '}';
        }
    }
    appendMember(out, "hostSeconds", r.hostSeconds);
    out += '}';
}

bool
readRecord(const std::string &text, SweepResult &out, std::string &error)
{
    JsonValue doc;
    return parseJson(text, doc, error) && readPoint(doc, out, error);
}

// --- sweep results document --------------------------------------------------

void
writeJson(const std::string &path, const std::string &suite,
          const Options &opts, const std::vector<SweepResult> &results,
          double total_host_seconds)
{
    char timestamp[32] = "";
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc))
        std::strftime(timestamp, sizeof(timestamp),
                      "%Y-%m-%dT%H:%M:%SZ", &tm_utc);

    std::string out = "{\n  \"schema\": \"cpx-sweep-1\",\n  \"suite\": ";
    appendString(out, suite);
    out += ",\n  \"timestamp\": ";
    appendString(out, timestamp);
    out += ",\n  \"jobs\": ";
    appendValue(out, opts.jobs);
    out += ",\n  \"scale\": ";
    appendValue(out, opts.scale);
    out += ",\n  \"procs\": ";
    appendValue(out, opts.procs);
    out += ",\n  \"simThreads\": ";
    appendValue(out, opts.simThreads);
    out += ",\n  \"hostSeconds\": ";
    appendValue(out, total_host_seconds);
    out += ",\n  \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        appendRecord(out, results[i]);
    }
    out += "\n  ]\n}\n";

    std::string error;
    if (!atomicWriteFile(path, out, ".tmp", error))
        fatal("%s", error.c_str());
}

// --- JSON reader -----------------------------------------------------------

const JsonValue &
JsonValue::at(const std::string &key) const
{
    auto it = members.find(key);
    if (it == members.end())
        fatal("JSON object has no member '%s'", key.c_str());
    return it->second;
}

namespace
{

struct JsonParser
{
    const std::string &text;
    std::size_t pos = 0;
    unsigned depth = 0;  //!< open arrays/objects
    std::string error;

    explicit JsonParser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &why)
    {
        if (error.empty())
            error = why + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return fail(std::string("expected '") + c + "'");
    }

    bool
    parseLiteral(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (text.compare(pos, n, lit) != 0)
            return fail(std::string("bad literal (expected ") + lit +
                        ")");
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("unterminated escape");
                char e = text[pos++];
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'n':  out += '\n'; break;
                  case 'r':  out += '\r'; break;
                  case 't':  out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            cp |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    // Our documents only escape control characters;
                    // encode the BMP code point as UTF-8.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xc0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos;
        out.kind = JsonValue::Kind::Object;
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return false;
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.members.emplace(std::move(key), std::move(member));
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                skipSpace();
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos;
        out.kind = JsonValue::Kind::Array;
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            JsonValue item;
            if (!parseValue(item))
                return false;
            out.items.push_back(std::move(item));
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            return consume(']');
        }
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{' || c == '[') {
            // Bounded recursion: a line of brackets is a parse error,
            // not a stack overflow.
            if (depth == jsonMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(jsonMaxDepth) + " levels");
            ++depth;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return parseLiteral("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return parseLiteral("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return parseLiteral("null");
        }
        // Number.
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("unexpected character");
        char *end = nullptr;
        std::string num = text.substr(start, pos - start);
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(num.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number '" + num + "'");
        // Keep the raw token: integer consumers (the record reader)
        // reread it exactly, so values beyond 2^53 survive; the
        // double above is lossy there.
        out.text = std::move(num);
        return true;
    }
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text);
    if (!parser.parseValue(out)) {
        error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        error = "trailing garbage at offset " +
                std::to_string(parser.pos);
        return false;
    }
    return true;
}

namespace
{

/** Read a file and parse it as JSON. */
bool
loadJsonFile(const std::string &path, JsonValue &doc, std::string &error)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    if (!parseJson(text.str(), doc, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

/** Read a file and parse it as a cpx-sweep-1 document. */
bool
loadSweepDoc(const std::string &path, JsonValue &doc,
             std::string &error)
{
    if (!loadJsonFile(path, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object || !doc.has("schema") ||
        doc.at("schema").text != "cpx-sweep-1") {
        error = path + ": missing cpx-sweep-1 schema marker";
        return false;
    }
    return true;
}

std::string
pointLabel(const JsonValue &point)
{
    std::string label =
        point.has("tag") ? point.at("tag").text : std::string();
    if (point.has("app"))
        label += (label.empty() ? "" : "/") + point.at("app").text;
    return label.empty() ? "?" : label;
}

} // anonymous namespace

bool
validateResultsFile(const std::string &path, std::string &error,
                    bool allow_failed)
{
    JsonValue doc;
    if (!loadSweepDoc(path, doc, error))
        return false;
    if (!doc.has("points") ||
        doc.at("points").kind != JsonValue::Kind::Array ||
        doc.at("points").items.empty()) {
        error = path + ": no sweep points recorded";
        return false;
    }
    RunResult parsed;
    std::string failed;
    for (const JsonValue &point : doc.at("points").items) {
        if (point.kind != JsonValue::Kind::Object ||
            !point.has("verified") || !point.has("app") ||
            !point.has("config")) {
            error = path + ": malformed sweep point";
            return false;
        }
        // Points carry a "status" since the fault-isolation work;
        // files written before then are all-ok by construction.
        const std::string status =
            point.has("status") ? point.at("status").text
                                : std::string("ok");
        if (status != "ok") {
            if (!point.has("error")) {
                error = path + ": failed point without an error "
                        "message";
                return false;
            }
            failed += "\n  [" + status + "] " + pointLabel(point) +
                      ": " + point.at("error").text;
            continue;
        }
        if (!point.has("execTime")) {
            error = path + ": malformed sweep point";
            return false;
        }
        if (!point.at("verified").boolean) {
            failed += "\n  [unverified] " + pointLabel(point);
            continue;
        }
        // The optional blocks (timeseries, attribution), when present,
        // must read back as the record reader reads them.
        for (const StatBlock &b : statBlocks) {
            if (!b.present || !point.has(b.key))
                continue;
            std::string why;
            if (!b.read(point.at(b.key), parsed, why)) {
                error = path + ": malformed " + b.key + " block: " + why;
                return false;
            }
        }
    }
    if (!failed.empty() && !allow_failed) {
        error = path + ": failed sweep point(s):" + failed;
        return false;
    }
    return true;
}

bool
validateTraceFile(const std::string &path, std::string &error)
{
    JsonValue doc;
    if (!loadJsonFile(path, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object ||
        !doc.has("traceEvents") ||
        doc.at("traceEvents").kind != JsonValue::Kind::Array) {
        error = path + ": missing traceEvents array";
        return false;
    }
    const auto &events = doc.at("traceEvents").items;
    if (events.empty()) {
        error = path + ": empty traceEvents array";
        return false;
    }

    // Async transaction spans must pair up: per id, as many "b"
    // begins as "e" ends (the exporter degrades unmatched spans to
    // instants, so an imbalance means exporter breakage). Counter
    // events ("C", the interval-metric tracks) must each carry a
    // numeric args.value and be non-decreasing in time per track.
    std::map<std::string, long> open_spans;
    std::map<std::string, double> counter_last_ts;
    for (const JsonValue &ev : events) {
        if (ev.kind != JsonValue::Kind::Object || !ev.has("ph") ||
            !ev.has("pid")) {
            error = path + ": malformed trace event";
            return false;
        }
        const std::string &ph = ev.at("ph").text;
        if (ph == "M")
            continue;  // metadata: process/thread names
        if (!ev.has("ts") || !ev.has("name")) {
            error = path + ": trace event missing ts/name";
            return false;
        }
        if (ph == "b" || ph == "e") {
            if (!ev.has("id")) {
                error = path + ": async event missing id";
                return false;
            }
            open_spans[ev.at("id").text] += ph == "b" ? 1 : -1;
        } else if (ph == "C") {
            if (!ev.has("args") ||
                ev.at("args").kind != JsonValue::Kind::Object ||
                !ev.at("args").has("value") ||
                ev.at("args").at("value").kind !=
                    JsonValue::Kind::Number) {
                error = path +
                        ": counter event missing numeric args.value";
                return false;
            }
            const std::string &track = ev.at("name").text;
            double ts = ev.at("ts").number;
            auto it = counter_last_ts.find(track);
            if (it != counter_last_ts.end() && ts < it->second) {
                error = path + ": counter track '" + track +
                        "' goes backwards in time";
                return false;
            }
            counter_last_ts[track] = ts;
        } else if (ph != "i") {
            error = path + ": unexpected phase '" + ph + "'";
            return false;
        }
    }
    for (const auto &[id, balance] : open_spans) {
        if (balance != 0) {
            error = path + ": unbalanced b/e events for id " + id;
            return false;
        }
    }
    return true;
}

namespace
{

bool
jsonEquals(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        return a.boolean == b.boolean;
      case JsonValue::Kind::Number:
        // %.17g round-trips doubles exactly, so simulated stats from
        // identical runs parse back to identical values.
        return a.number == b.number;
      case JsonValue::Kind::String:
        return a.text == b.text;
      case JsonValue::Kind::Array:
        if (a.items.size() != b.items.size())
            return false;
        for (std::size_t i = 0; i < a.items.size(); ++i)
            if (!jsonEquals(a.items[i], b.items[i]))
                return false;
        return true;
      case JsonValue::Kind::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (const auto &[key, value] : a.members) {
            auto it = b.members.find(key);
            if (it == b.members.end() ||
                !jsonEquals(value, it->second))
                return false;
        }
        return true;
    }
    return false;
}


} // anonymous namespace

bool
compareToBaseline(const std::string &path,
                  const std::string &baseline_path,
                  std::string &error)
{
    JsonValue cur, base;
    if (!loadSweepDoc(path, cur, error) ||
        !loadSweepDoc(baseline_path, base, error))
        return false;
    if (!cur.has("points") || !base.has("points") ||
        cur.at("points").kind != JsonValue::Kind::Array ||
        base.at("points").kind != JsonValue::Kind::Array) {
        error = "missing points array";
        return false;
    }
    const auto &cur_pts = cur.at("points").items;
    const auto &base_pts = base.at("points").items;
    if (cur_pts.size() != base_pts.size()) {
        error = path + ": " + std::to_string(cur_pts.size()) +
                " points vs " + std::to_string(base_pts.size()) +
                " in baseline " + baseline_path;
        return false;
    }

    // The point's identity and every gated stat block; the record's
    // other members (host time, kernel telemetry, observer output)
    // are exempt.
    std::vector<const char *> gated(std::begin(gatedPointKeys),
                                    std::end(gatedPointKeys));
    for (const StatBlock &b : statBlocks)
        if (b.gated)
            gated.push_back(b.key);
    // Collect every divergent point (with its config hash, so the
    // culprit can be re-run or evicted from a result cache by name)
    // instead of bailing at the first: one look at the message shows
    // whether a drift is a single config or systemic.
    std::vector<std::string> diffs;
    for (std::size_t i = 0; i < cur_pts.size(); ++i) {
        const JsonValue &c = cur_pts[i];
        const JsonValue &b = base_pts[i];
        for (const char *field : gated) {
            const bool in_c = c.has(field);
            const bool in_b = b.has(field);
            if (in_c != in_b ||
                (in_c && !jsonEquals(c.at(field), b.at(field)))) {
                std::string hash =
                    c.has("configHash") ? c.at("configHash").text
                                        : std::string("?");
                diffs.push_back("point " + std::to_string(i) + " (" +
                                pointLabel(c) + ", hash=" + hash +
                                ") drifted in '" + field + "'");
                break;
            }
        }
    }
    if (!diffs.empty()) {
        constexpr std::size_t max_listed = 40;
        error = path + ": " + std::to_string(diffs.size()) +
                " point(s) drifted from baseline " + baseline_path +
                ":";
        for (std::size_t i = 0;
             i < diffs.size() && i < max_listed; ++i)
            error += "\n  " + diffs[i];
        if (diffs.size() > max_listed)
            error += "\n  … and " +
                     std::to_string(diffs.size() - max_listed) +
                     " more";
        return false;
    }
    return true;
}

JournalLoad
loadJournal(const std::string &path)
{
    JournalLoad load;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return load;
    std::ofstream quarantine;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(file, line)) {
        ++lineno;
        if (line.empty())
            continue;
        SweepResult res;
        std::string err;
        if (!readRecord(line, res, err)) {
            // A corrupt or truncated line (e.g. a crash mid-append on
            // a filesystem without ordered data), or one of an older
            // record format, is preserved in a sidecar, never silently
            // dropped: re-running its point is safe, hiding the
            // corruption is not.
            if (!quarantine.is_open()) {
                load.quarantineFile = path + ".quarantine";
                quarantine.open(load.quarantineFile,
                                std::ios::binary | std::ios::app);
            }
            quarantine << line << "\n";
            ++load.quarantined;
            std::fprintf(stderr,
                         "cpxbench: %s:%zu: corrupt journal line "
                         "(%s)\n",
                         path.c_str(), lineno, err.c_str());
            continue;
        }
        res.source = ResultSource::Journal;
        load.byHash[res.configHash] = std::move(res);
        ++load.entries;
    }
    return load;
}

// --- fault-injection self-test ---------------------------------------------

int
runFaultSelfTest(const Options &base)
{
    char tmpl[] = "/tmp/cpx-selftest-XXXXXX";
    if (!::mkdtemp(tmpl)) {
        std::fprintf(stderr, "self-test: mkdtemp: %s\n",
                     std::strerror(errno));
        return 1;
    }
    const std::string dir = tmpl;

    // Small, fast grid parameters; the self-test exercises the
    // supervisor, not the simulator.
    Options opts = base;
    opts.isolate = IsolateMode::Process;
    opts.scale = std::min(opts.scale, 0.2);
    opts.procs = 4;
    opts.retries = 0;
    if (opts.timeoutSec <= 0)
        opts.timeoutSec = 5.0;
    if (opts.jobs == 0)
        opts.jobs = 4;
    MachineParams params;

    int failures = 0;
    auto check = [&](bool cond, const char *what) {
        std::printf("  %s: %s\n", cond ? "ok" : "FAIL", what);
        if (!cond)
            ++failures;
    };

    std::printf("[1/4] outcome classification under --isolate="
                "process\n");
    {
        const std::pair<const char *, PointStatus> outcomes[] = {
            {faultAppCrash, PointStatus::Signal},
            {faultAppExit, PointStatus::NonzeroExit},
            {faultAppHang, PointStatus::Timeout},
            {faultAppGarbage, PointStatus::Garbage},
            {faultAppUnverified, PointStatus::InvariantFailure},
            {"migratory", PointStatus::Ok},
        };
        Options o = opts;
        o.journalPath = dir + "/classify.jsonl";
        SweepRunner runner(o);
        for (const auto &[app, status] : outcomes)
            runner.add(app, params, app);
        runner.runAll();
        for (std::size_t i = 0; i < std::size(outcomes); ++i) {
            const auto &[app, status] = outcomes[i];
            check(runner[i].status == status,
                  (std::string(app) + " classified as " +
                   pointStatusName(status))
                      .c_str());
        }
        check(runner.failedCount() == 5,
              "exactly the five injected faults failed");
    }

    std::printf("[2/4] transient-failure retry\n");
    {
        Options o = opts;
        o.retries = 1;
        const std::string marker = dir + "/flaky.marker";
        ::setenv(flakyMarkerEnv, marker.c_str(), 1);
        SweepRunner runner(o);
        std::size_t h = runner.add(faultAppFlaky, params, "flaky");
        runner.runAll();
        ::unsetenv(flakyMarkerEnv);
        std::remove(marker.c_str());
        check(runner[h].ok(), "flaky point succeeded after retry");
        check(runner[h].attempts == 2,
              "flaky point took exactly two attempts");
    }

    std::printf("[3/4] subprocess stats bit-identical to "
                "in-process\n");
    const char *apps[] = {"migratory", "producer_consumer",
                          "false_sharing"};
    // hostSeconds is the one legitimately host-dependent field;
    // everything else must match to the bit.
    auto record_no_host = [](SweepResult r) {
        r.hostSeconds = 0;
        std::string record;
        appendRecord(record, r);
        return record;
    };
    {
        Options in = opts;
        in.isolate = IsolateMode::None;
        in.timeoutSec = 0;
        SweepRunner r_in(in);
        SweepRunner r_proc(opts);
        for (const char *app : apps) {
            r_in.add(app, params, app);
            r_proc.add(app, params, app);
        }
        r_in.runAll();
        r_proc.runAll();
        bool identical = true;
        for (std::size_t i = 0; i < 3; ++i)
            identical = identical && record_no_host(r_in[i]) ==
                                         record_no_host(r_proc[i]);
        check(identical,
              "all healthy points bit-identical across modes");
    }

    std::printf("[4/4] journal resume skips completed points\n");
    {
        Options first = opts;
        first.journalPath = dir + "/resume.jsonl";
        SweepRunner r1(first);
        for (const char *app : apps)
            r1.add(app, params, app);
        r1.runAll();
        check(r1.executedCount() == 3, "first run executed all");

        Options second = first;
        second.resumePath = first.journalPath;
        SweepRunner r2(second);
        for (const char *app : apps)
            r2.add(app, params, app);
        r2.runAll();
        check(r2.executedCount() == 0,
              "resumed run re-executed nothing");
        bool identical = true;
        for (std::size_t i = 0; i < 3; ++i)
            identical = identical && record_no_host(r1[i]) ==
                                         record_no_host(r2[i]);
        check(identical, "resumed stats identical to first run");
    }

    // Best-effort cleanup of the scratch dir.
    for (const char *name :
         {"classify.jsonl", "flaky.marker", "resume.jsonl"})
        std::remove((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());

    if (failures) {
        std::printf("self-test: %d check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("self-test: all checks passed\n");
    return 0;
}

// --- bench-module registry -------------------------------------------------

namespace
{

std::vector<BenchDef> &
mutableRegistry()
{
    static std::vector<BenchDef> registry;
    return registry;
}

} // anonymous namespace

detail::BenchRegistrar::BenchRegistrar(const BenchDef &def)
{
    mutableRegistry().push_back(def);
}

const std::vector<BenchDef> &
benchRegistry()
{
    std::vector<BenchDef> &registry = mutableRegistry();
    std::stable_sort(registry.begin(), registry.end(),
                     [](const BenchDef &a, const BenchDef &b) {
                         return a.order < b.order;
                     });
    return registry;
}

int
standaloneMain(int argc, char **argv, const BenchDef &def)
{
    Options opts = parseOptions(argc, argv);
    SweepRunner runner(opts);
    RenderFn render = def.setup(runner, opts);
    runner.runAll();
    if (runner.interrupted()) {
        // Completed points are journaled; nothing else is
        // trustworthy enough to render or write.
        return exitCodeInterrupted;
    }
    if (render)
        render();
    if (!opts.jsonPath.empty())
        writeJson(opts.jsonPath, def.name, opts, runner.results(),
                  runner.totalHostSeconds());
    if (runner.anyFailed()) {
        std::fprintf(stderr,
                     "%s: %zu sweep point(s) failed:%s\n",
                     std::string(def.name).c_str(),
                     runner.failedCount(),
                     runner.failureSummary().c_str());
        return exitCodePointsFailed;
    }
    return 0;
}

} // namespace cpx::bench
