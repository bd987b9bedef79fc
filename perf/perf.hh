/**
 * @file
 * Shared pieces of the cpxperf benchmark program: the in-memory span
 * recorder and the micro-probe entry point (see perf/README.md).
 */

#ifndef CPX_PERF_PERF_HH
#define CPX_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cpxperf
{

/** CLOCK_MONOTONIC nanoseconds: the same clock Python's
 *  time.monotonic_ns() reads, so spans from cpxperf and from
 *  perf/run.py land on one timeline. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Spans recorded around calls into the simulator's layers. Each span
 * has a name, a start, an end and the span that was open when it
 * started (its parent). Kept in memory and printed once at exit.
 * Single-threaded: only cpxperf's main thread opens spans.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t start;
        std::uint64_t end;
        int parent;  //!< index into spans(), -1 for a root
    };

    /** Closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log(log)
        {
            index = static_cast<int>(log.spans_.size());
            log.spans_.push_back(Span{name, nowNs(), 0, log.open});
            log.open = index;
        }
        ~Scope()
        {
            Span &s = log.spans_[index];
            s.end = nowNs();
            log.open = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        const Span &span() const { return log.spans_[index]; }

      private:
        SpanLog &log;
        int index;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration, in seconds, of every span named @p name. */
    double
    seconds(const std::string &name) const
    {
        std::uint64_t ns = 0;
        for (const Span &s : spans_)
            if (name == s.name)
                ns += s.end - s.start;
        return ns * 1e-9;
    }

  private:
    std::vector<Span> spans_;
    int open = -1;
};

/** Named numbers a probe or run reports, in output order. */
using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * Micro-probes over public APIs only: EventQueue schedule+run, Fiber
 * resume/yield, Network::send on the uniform and a 16-node mesh
 * fabric, and SlabEngine::run at one and four workers. Appends
 * sim.eq_ns, fiber.switch_ns, net.uniform_send_ns, net.mesh_send_ns,
 * core.slab_ns_w1 and core.slab_ns_w4 to @p out.
 */
void runProbes(SpanLog &log, Metrics &out);

} // namespace cpxperf

#endif // CPX_PERF_PERF_HH
