#include <memory>
#include <vector>

#include "core/engine.hh"
#include "fiber/fiber.hh"
#include "net/mesh.hh"
#include "net/network.hh"
#include "perf.hh"
#include "sim/event_queue.hh"

namespace cpxperf
{

namespace
{

using namespace cpx;

/** Events per probe batch, and batches per probe (~1M iterations).
 *  Batches keep the pending set as small as a simulation's. */
constexpr unsigned batch = 1024;
constexpr unsigned rounds = 1024;

/** Schedule one batch of short-delay events, then run it dry. */
double
eventQueueNs()
{
    EventQueue q;
    std::uint64_t fired = 0;
    const std::uint64_t t0 = nowNs();
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned i = 0; i < batch; ++i)
            q.scheduleIn(1 + (i * 7) % 64, [&fired] { ++fired; });
        q.run();
    }
    return static_cast<double>(nowNs() - t0) / fired;
}

/** One resume() plus the yield() that returns from it. */
double
fiberSwitchNs()
{
    constexpr unsigned n = batch * rounds;
    Fiber f([] {
        for (unsigned i = 0; i < n; ++i)
            Fiber::yield();
    });
    const std::uint64_t t0 = nowNs();
    while (!f.finished())
        f.resume();
    return static_cast<double>(nowNs() - t0) / (n + 1);
}

/**
 * Network::send between pseudo-random node pairs over a bare queue
 * (no slab engine installed, so each send routes inline). Only the
 * send loop is timed; the queue is drained between batches.
 */
double
sendNs(EventQueue &q, Network &net, unsigned nodes)
{
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>(rng >> 33);
    };
    std::uint64_t delivered = 0;
    std::uint64_t timed = 0;
    for (unsigned r = 0; r < rounds; ++r) {
        const std::uint64_t t0 = nowNs();
        for (unsigned i = 0; i < batch; ++i) {
            NodeId src = next() % nodes;
            NodeId dst = (src + 1 + next() % (nodes - 1)) % nodes;
            net.send(src, dst, 32, [&delivered] { ++delivered; },
                     MsgClass::Data);
        }
        timed += nowNs() - t0;
        q.run();
    }
    return static_cast<double>(timed) / (batch * rounds);
}

/** Reschedules itself every three ticks on its own node queue. */
struct EveryThreeTicks
{
    EventQueue *q;
    Tick end;

    void
    operator()()
    {
        if (q->now() + 3 < end)
            q->schedule(q->now() + 3, EveryThreeTicks{q, end});
    }
};

/**
 * SlabEngine::run over 16 node queues, each with one event every 3
 * ticks, under a 3-tick lookahead: the mesh's slab shape with almost
 * no work per slab, so the time is the kernel's per-slab cost.
 */
double
slabNs(unsigned workers, Tick horizon)
{
    constexpr unsigned nodes = 16;
    EventQueue kernel;
    std::vector<std::unique_ptr<EventQueue>> queues;
    for (unsigned n = 0; n < nodes; ++n) {
        queues.push_back(std::make_unique<EventQueue>());
        queues.back()->schedule(0, EveryThreeTicks{queues.back().get(),
                                                   horizon});
    }
    UniformNetwork net(kernel, 3);
    SlabEngine engine(kernel, queues, net, workers);
    const std::uint64_t t0 = nowNs();
    engine.run(maxTick);
    return static_cast<double>(nowNs() - t0) /
           engine.telemetry().slabRounds;
}

} // anonymous namespace

void
runProbes(SpanLog &log, Metrics &out)
{
    {
        SpanLog::Scope s(log, "probe.event_queue");
        out.emplace_back("sim.eq_ns", eventQueueNs());
    }
    {
        SpanLog::Scope s(log, "probe.fiber");
        out.emplace_back("fiber.switch_ns", fiberSwitchNs());
    }
    {
        SpanLog::Scope s(log, "probe.uniform_send");
        EventQueue q;
        UniformNetwork net(q);
        out.emplace_back("net.uniform_send_ns", sendNs(q, net, 16));
    }
    {
        SpanLog::Scope s(log, "probe.mesh_send");
        EventQueue q;
        MeshNetwork net(q, 16, 64);
        out.emplace_back("net.mesh_send_ns", sendNs(q, net, 16));
    }
    {
        SpanLog::Scope s(log, "probe.slab_w1");
        out.emplace_back("core.slab_ns_w1", slabNs(1, 3 * 1000000));
    }
    {
        // Fewer slabs: at four workers each slab costs two barrier
        // crossings, which can be 10x slower when the host is busy.
        SpanLog::Scope s(log, "probe.slab_w4");
        out.emplace_back("core.slab_ns_w4", slabNs(4, 3 * 100000));
    }
}

} // namespace cpxperf
