/**
 * @file
 * The repository benchmark program: one named workload per invocation,
 * one process, one thread.
 *
 * It drives the simulator through its public API (Engine, Ssd,
 * SyntheticGenerator / OpenLoopGenerator, QueueDriver / NvmeHost,
 * GcEngine::forceAll, Ssd::ioBreakdown, StatRegistry::value) rather
 * than through the bench harness, so it can time every call it makes
 * into a layer from outside. A run repeats the same seeded simulation
 * until --seconds of host time are used and reports host-time metrics
 * as medians over the repetitions; the simulated metrics are identical
 * in every repetition (checked through the digest).
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--window-ms MS] [--spans FILE] [--doctor CHECK]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics (see README.md).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/gc.hh"
#include "core/ssd.hh"
#include "hil/driver.hh"
#include "hil/nvme_host.hh"
#include "sim/engine.hh"
#include "sim/log.hh"
#include "sim/registry.hh"
#include "workload/generator.hh"

using namespace dssd;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nearest-rank percentile of @p sorted (ascending); 0 when empty. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return percentile(v, 50.0);
}

/** 64-bit FNV-1a, the digest over all simulated outputs. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= p[i];
            _h *= 1099511628211ULL;
        }
    }

    void add(const std::string &s) { add(s.data(), s.size()); }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 14695981039346656037ULL;
};

//
// Spans: host-time intervals around every call the benchmark makes
// into a layer. Kept in memory; written out once at exit.
//

class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        double start; ///< host seconds since the log's origin
        double end;
        int parent;   ///< index of the enclosing span, -1 at top level
        std::int64_t req; ///< request id, -1 when not request-scoped
    };

    explicit SpanLog(Clock::time_point origin) : _origin(origin) {}

    int
    open(const char *name, std::int64_t req)
    {
        int idx = static_cast<int>(_spans.size());
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back(Span{name, now(), 0.0, parent, req});
        _stack.push_back(idx);
        return idx;
    }

    void
    close(int idx)
    {
        _spans[static_cast<std::size_t>(idx)].end = now();
        _stack.pop_back();
    }

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time per span name: duration minus child durations. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child(_spans.size(), 0.0);
        for (const Span &s : _spans) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < _spans.size(); ++i)
            out[_spans[i].name] += _spans[i].end - _spans[i].start - child[i];
        return out;
    }

    /** Summed inclusive duration of every span called @p name. */
    double
    total(const char *name) const
    {
        double sum = 0.0;
        for (const Span &s : _spans) {
            if (std::strcmp(s.name, name) == 0)
                sum += s.end - s.start;
        }
        return sum;
    }

    /** Summed duration of top-level spans starting at or after @p t. */
    double
    topLevelSince(double t) const
    {
        double sum = 0.0;
        for (const Span &s : _spans) {
            if (s.parent < 0 && s.start >= t)
                sum += s.end - s.start;
        }
        return sum;
    }

    double
    now() const
    {
        return secondsBetween(_origin, Clock::now());
    }

    /** Write the spans as Chrome trace_event JSON (Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%zu,\"parent\":%d,\"req\":%" PRId64 "}}\n",
                         i ? "," : "", s.name, s.start * 1e6,
                         (s.end - s.start) * 1e6, i, s.parent, s.req);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; a null log makes it free (the untraced path). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::int64_t req = -1)
        : _log(log), _idx(log ? log->open(name, req) : -1)
    {
    }
    ~SpanScope()
    {
        if (_log)
            _log->close(_idx);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *_log;
    int _idx;
};

//
// Workloads.
//

struct WorkloadSpec
{
    std::string name;
    ArchKind arch = ArchKind::Baseline;
    BufferMode buffer = BufferMode::AlwaysMiss;
    bool faults = false;
    Tick window = 0;
    /// Untraced runs time repetitions of this prefix of the window
    /// (0: the whole window); the first repetition always simulates the
    /// whole window and gives every output.
    Tick timingWindow = 0;
    /// Simulated length of one timing segment; a divisor of 1 ms.
    Tick segment = tickMs;
    // One closed-loop stream; forced continuous GC re-armed over the
    // window.
    double readRatio = 0.0;
    bool sequential = false;
    std::uint64_t requestBytes = 4 * kKiB;
    unsigned queueDepth = 64;
    /// Front-end: QueueDriver when 0; otherwise NvmeHost with the
    /// stream as its one tenant, with this SLO target in us.
    double hostSloUs = 0;
};

constexpr unsigned kGcVictims = 2;
/// Logical fill written by prefill (the rest stays free), and the
/// share of it trimmed again.
constexpr double kPrefillFill = 0.8;
constexpr double kPrefillInvalid = 0.3;
/// Name of the NvmeHost tenant (hil.slo_compliance.<name>).
constexpr const char *kTenant = "host";

std::optional<WorkloadSpec>
findWorkload(const std::string &name)
{
    auto base = [&](ArchKind arch, BufferMode buffer, bool faults,
                    Tick window) {
        WorkloadSpec w;
        w.name = name;
        w.arch = arch;
        w.buffer = buffer;
        w.faults = faults;
        w.window = window;
        return w;
    };
    if (name == "seqwrite_gc") {
        // 170 ms is the shortest window that completes >= 10,000
        // requests (about 10,120) at this workload's steady 59.2 k req/s.
        // It costs 6-10 s of host time, so a run fits too few of it for
        // the fastest-segment run_s to be steady; run_s times a 20 ms
        // prefix instead, which fits about 40 repetitions.
        WorkloadSpec w = base(ArchKind::DSSDNoc, BufferMode::Real, false,
                              170 * tickMs);
        w.timingWindow = 20 * tickMs;
        // About 2 ms of host time each, as a 1 ms slice of
        // mixed_read_gc: short enough for the fastest-segment sum to
        // find the undisturbed moments of a run.
        w.segment = 50 * tickUs;
        w.sequential = true;
        w.requestBytes = 128 * kKiB;
        return w;
    }
    if (name == "mixed_read_gc") {
        // Submitted through NvmeHost, one closed-loop tenant: it issues
        // exactly what QueueDriver would (the repository tests this),
        // and puts the multi-queue front-end on the request path.
        WorkloadSpec w = base(ArchKind::Baseline, BufferMode::AlwaysMiss,
                              true, 200 * tickMs);
        w.readRatio = 0.7;
        w.hostSloUs = 500.0;
        return w;
    }
    return std::nullopt;
}

SsdConfig
makeBenchConfig(const WorkloadSpec &w, std::uint64_t seed)
{
    SsdConfig c = makeConfig(w.arch);
    c.geom.channels = 8;
    c.geom.ways = 4;
    c.geom.diesPerWay = 1;
    c.geom.planesPerDie = 8;
    c.geom.blocksPerPlane = 64;
    c.geom.pagesPerBlock = 64;
    c.systemBusBandwidth = gbPerSec(8.0);
    c.onChipBandwidthFactor = w.arch == ArchKind::Baseline ? 1.0 : 1.25;
    c.writeBuffer.mode = w.buffer;
    c.writeBuffer.capacityPages = 4096;
    c.flushInFlight = 64;
    c.gc.copiesInFlightPerUnit = 2;
    c.fault.enabled = w.faults;
    c.fault.seed = seed * 1000003ULL + 99;
    c.seed = seed;
    return c;
}

//
// One repetition: set up, simulate, read stats.
//

struct Request
{
    Tick due = 0;
    Tick submit = 0;
    Tick done = 0;
    bool submitted = false;
    bool completed = false;
};

/** What the output checks look at (doctorable copies). */
struct Observed
{
    std::uint64_t pendingEvents = 0;
    std::uint64_t ioOutstanding = 0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t frontEndCompleted = 0; ///< QueueDriver / NvmeHost count
    std::uint64_t mismatchedSubmits = 0;
    std::vector<Request> requests;

    struct Resource
    {
        std::string name;
        double io = 0, gc = 0, meta = 0;
        double busyTicks = 0;
        double transfers = 0;
        double bandwidth = 0; ///< bytes per tick
    };
    std::vector<Resource> resources;

    bool hasNoc = false;
    double nocInjected = 0;
    double nocDelivered = 0;
};

struct Check
{
    std::string name;
    bool ok;
    std::uint64_t failedRequests; ///< requests the violation covers
    std::string detail;
};

std::vector<Check>
runChecks(const Observed &o, bool needTail)
{
    std::vector<Check> out;
    auto add = [&](const char *name, bool ok, std::uint64_t failed,
                   std::string detail) {
        out.push_back(Check{name, ok, ok ? 0 : failed, std::move(detail)});
    };
    char buf[256];

    std::snprintf(buf, sizeof buf, "pending events %" PRIu64
                  ", outstanding page ops %" PRIu64,
                  o.pendingEvents, o.ioOutstanding);
    add("drained", o.pendingEvents == 0 && o.ioOutstanding == 0,
        o.issued, buf);

    std::snprintf(buf, sizeof buf,
                  "issued %" PRIu64 ", completed %" PRIu64
                  ", dropped %" PRIu64 ", front end completed %" PRIu64,
                  o.issued, o.completed, o.dropped, o.frontEndCompleted);
    add("accounted",
        o.issued == o.completed + o.dropped &&
            o.completed == o.frontEndCompleted,
        o.issued, buf);

    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " submitted requests differ from the "
                  "generated ones", o.mismatchedSubmits);
    add("submitted_as_generated", o.mismatchedSubmits == 0,
        o.mismatchedSubmits, buf);

    std::uint64_t bad = 0;
    for (const Request &r : o.requests) {
        if (!r.completed)
            continue;
        // sim latency (done - due) >= device part (done - submit) >= 0
        if (!r.submitted || r.submit < r.due || r.done < r.submit)
            ++bad;
    }
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " requests with latency < device latency "
                  "or device latency < 0", bad);
    add("latency_order", bad == 0, bad, buf);

    std::string worst;
    bool bytes_ok = true;
    for (const Observed::Resource &r : o.resources) {
        // Every transfer holds the resource for max(1, ceil(bytes/bw))
        // ticks, so the tagged bytes must account for the busy time.
        double lo = (r.io + r.gc + r.meta) / r.bandwidth;
        bool ok = r.busyTicks >= lo - 1e-6 &&
                  r.busyTicks <= lo + r.transfers + 1e-6;
        if (!ok && bytes_ok) {
            bytes_ok = false;
            worst = r.name;
        }
    }
    add("bytes_conserved", bytes_ok, o.issued,
        bytes_ok ? "busy time = (io + gc + meta bytes) / bandwidth, "
                   "within per-transfer rounding"
                 : "busy time disagrees with tagged bytes on " + worst);

    std::snprintf(buf, sizeof buf, "fNoC injected %.0f, delivered %.0f",
                  o.nocInjected, o.nocDelivered);
    add("noc_packets_conserved",
        !o.hasNoc || o.nocInjected == o.nocDelivered, o.issued, buf);

    if (needTail) {
        std::snprintf(buf, sizeof buf,
                      "%" PRIu64 " completed requests (need >= 10000 "
                      "for ten samples beyond p99.9)", o.completed);
        add("tail_samples", o.completed >= 10000, o.issued, buf);
    }
    return out;
}

/** Apply a deliberate corruption so one check must trip. */
bool
doctor(Observed &o, const std::string &what)
{
    if (what == "drained")
        ++o.pendingEvents;
    else if (what == "accounted")
        ++o.issued;
    else if (what == "submitted_as_generated")
        ++o.mismatchedSubmits;
    else if (what == "latency_order") {
        for (Request &r : o.requests) {
            if (r.completed) {
                r.submit = r.done + 1; // device latency < 0
                break;
            }
        }
    } else if (what == "bytes_conserved") {
        if (o.resources.empty())
            return false;
        o.resources[0].io *= 2;
        o.resources[0].io += 1e9;
    } else if (what == "noc_packets_conserved") {
        if (!o.hasNoc)
            return false;
        o.nocDelivered -= 1;
    } else if (what == "tail_samples")
        o.completed = std::min<std::uint64_t>(o.completed, 9999);
    else
        return false;
    return true;
}

/** Everything one repetition measured. */
struct RepResult
{
    Tick window = 0; ///< simulated window of this repetition
    double setupS = 0;
    double runS = 0;
    /// Host seconds of the start-up, each timing segment, and the drain.
    std::vector<double> segmentS;
    /// Host seconds of each 1 ms slice.
    std::vector<double> sliceS;
    std::map<std::string, double> sim;   ///< simulated end-to-end
    std::map<std::string, double> layer; ///< per-layer (traced reps)
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    Observed observed;
    std::vector<double> slicePending;
    double unspannedS = 0; ///< traced: run_s minus top-level span time
    double gcFirstMs = 0, gcLastMs = 0;
};

/**
 * run_s over the repetitions of one deterministic simulation that
 * simulated @p window: the sum, over its segments (start-up, each
 * timing segment, drain), of the fastest time any of them took for it.
 * Every such repetition executes the same events in each segment (the
 * digest check proves it), and host contention only ever adds time, so
 * this is the least-disturbed measurement of the run; with one
 * repetition it is that run's time.
 */
double
fastestSegmentsS(const std::vector<RepResult> &reps, Tick window)
{
    std::vector<double> best;
    for (const RepResult &r : reps) {
        if (r.window != window)
            continue;
        if (best.empty())
            best = r.segmentS;
        for (std::size_t k = 0; k < best.size() && k < r.segmentS.size(); ++k)
            best[k] = std::min(best[k], r.segmentS[k]);
    }
    double sum = 0;
    for (double b : best)
        sum += b;
    return sum;
}

/** Gauges sampled at the end of every simulated-ms slice (traced). */
struct GaugeSet
{
    std::vector<std::string> dbufWaiters;
    std::vector<std::string> vcWaiters;
    std::vector<std::string> eccQueueDelay;
    std::vector<double> dbufSamples, vcSamples, eccSamples;
};

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

class Run;

/** Wraps a generator: assigns request ids, records due times, spans. */
class TimedGenerator : public Generator
{
  public:
    TimedGenerator(Run &run, std::unique_ptr<Generator> inner)
        : _run(run), _inner(std::move(inner))
    {
    }

    std::optional<IoRequest> next() override;
    const std::string &name() const override { return _inner->name(); }

    /// Generated but not yet submitted: (request id, request), FIFO.
    std::deque<std::pair<std::size_t, IoRequest>> unsubmitted;

  private:
    Run &_run;
    std::unique_ptr<Generator> _inner;
};

class Run
{
  public:
    Run(const WorkloadSpec &w, std::uint64_t seed, Tick window,
        SpanLog *spans)
        : _w(w), _seed(seed), _window(window), _spans(spans)
    {
    }

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    /** Build Engine + Ssd, prefill, generators and host front-end. */
    void
    setup(RepResult &out)
    {
        Clock::time_point t0 = Clock::now();
        SsdConfig cfg = makeBenchConfig(_w, _seed);
        _engine = std::make_unique<Engine>();
        {
            SpanScope s(_spans, "ssd.construct");
            _ssd = std::make_unique<Ssd>(*_engine, cfg);
        }
        {
            SpanScope s(_spans, "ftl.prefill");
            _ssd->prefill(kPrefillFill, kPrefillInvalid);
        }

        std::uint64_t half =
            _ssd->mapping().lpnCount() * cfg.geom.pageBytes / 2;
        auto submit = [this](const IoRequest &r, Engine::Callback cb) {
            this->submit(r, std::move(cb));
        };
        SyntheticParams sp;
        sp.readRatio = _w.readRatio;
        sp.sequential = _w.sequential;
        sp.requestBytes = _w.requestBytes;
        sp.footprintBytes = half;
        sp.seed = _seed;
        _gens.push_back(std::make_unique<TimedGenerator>(
            *this, std::make_unique<SyntheticGenerator>(sp)));
        if (_w.hostSloUs <= 0) {
            _driver = std::make_unique<QueueDriver>(
                *_engine, *_gens[0], submit, _w.queueDepth);
        } else {
            _host = std::make_unique<NvmeHost>(*_engine, submit,
                                               NvmeHostParams{});
            TenantParams tp;
            tp.name = kTenant;
            tp.queueDepth = _w.queueDepth;
            tp.sloTargetUs = _w.hostSloUs;
            _host->addTenant(tp, *_gens[0]);
        }
        out.setupS = secondsBetween(t0, Clock::now());
    }

    /**
     * Simulate the window in 1 ms slices, each run as one or more
     * timing segments, then stop and drain. Host time is recorded per
     * segment (start-up, each timing segment, drain) and per slice; the
     * segments are contiguous, so they sum to run_s.
     */
    void
    simulate(RepResult &out, GaugeSet *gauges)
    {
        double span_origin = _spans ? _spans->now() : 0.0;
        Clock::time_point t0 = Clock::now();
        Clock::time_point last = t0;
        auto segment = [&] {
            Clock::time_point t = Clock::now();
            out.segmentS.push_back(secondsBetween(last, t));
            last = t;
        };
        if (_driver)
            _driver->start();
        else
            _host->start();
        armGc();
        segment();
        for (Tick until = tickMs; until <= _window; until += tickMs) {
            Clock::time_point slice_start = last;
            {
                SpanScope s(_spans, "sim.run_until");
                for (Tick t = until - tickMs + _w.segment; t <= until;
                     t += _w.segment) {
                    _engine->runUntil(t);
                    segment();
                }
            }
            out.sliceS.push_back(secondsBetween(slice_start, last));
            out.slicePending.push_back(
                static_cast<double>(_engine->pendingEvents()));
            if (gauges)
                sampleGauges(*gauges);
        }
        _gcStopped = true;
        if (_driver)
            _driver->stop();
        else
            _host->stop();
        {
            SpanScope s(_spans, "sim.run");
            _engine->run();
        }
        segment();
        out.runS = secondsBetween(t0, last);
        if (_spans)
            out.unspannedS = out.runS - _spans->topLevelSince(span_origin);
    }

    /** Read every output, fill @p out (simulated metrics, digest). */
    void
    collect(RepResult &out, bool perLayer, const GaugeSet *gauges)
    {
        SpanScope s(_spans, "stats.read");
        StatRegistry reg;
        _ssd->registerStats(reg, "ssd0");
        if (_driver)
            _driver->registerStats(reg, "host");
        else
            _host->registerStats(reg, "host");

        Observed &o = out.observed;
        o.pendingEvents = _engine->pendingEvents();
        o.ioOutstanding = _ssd->ioOutstanding();
        o.issued = _requests.size();
        o.mismatchedSubmits = _mismatched;
        o.frontEndCompleted =
            _driver ? _driver->completed() : _host->completed();
        o.requests = _requests;
        for (const Request &r : _requests)
            o.completed += r.completed ? 1 : 0;
        if (_host) {
            for (unsigned t = 0; t < _host->tenantCount(); ++t)
                o.dropped += _host->tenantStats(t).dropped();
        }
        auto resource = [&](const std::string &name,
                            const BandwidthResource &res) {
            Observed::Resource r;
            r.name = name;
            r.io = reg.value(name + ".bytes.io");
            r.gc = reg.value(name + ".bytes.gc");
            r.meta = reg.value(name + ".bytes.meta");
            r.busyTicks = reg.value(name + ".busy_ticks");
            r.transfers = reg.value(name + ".transfers");
            r.bandwidth = res.bandwidth();
            o.resources.push_back(r);
        };
        resource("ssd0.sysbus", _ssd->systemBus().channel());
        resource("ssd0.dram", _ssd->dram().port());
        for (unsigned ch = 0; ch < _ssd->channelCount(); ++ch)
            resource(strformat("ssd0.ch%u.bus", ch), _ssd->channel(ch).bus());
        o.hasNoc = _ssd->noc() != nullptr;
        if (o.hasNoc) {
            o.nocInjected = reg.value("ssd0.noc.packets_injected");
            o.nocDelivered = reg.value("ssd0.noc.packets_delivered");
        }

        // Simulated end-to-end metrics.
        std::vector<double> lat, dev, wait;
        std::uint64_t in_window = 0;
        for (const Request &r : _requests) {
            if (!r.completed)
                continue;
            lat.push_back(static_cast<double>(r.done - r.due) / tickUs);
            dev.push_back(static_cast<double>(r.done - r.submit) / tickUs);
            wait.push_back(static_cast<double>(r.submit - r.due) / tickUs);
            if (r.done <= _window)
                ++in_window;
        }
        std::sort(lat.begin(), lat.end());
        std::sort(dev.begin(), dev.end());
        std::sort(wait.begin(), wait.end());
        double uncorrectable = reg.has("ssd0.fault.reads_uncorrectable")
                                   ? reg.value("ssd0.fault.reads_uncorrectable")
                                   : 0.0;
        double attempted = static_cast<double>(_requests.size());
        std::uint64_t completed = lat.size();
        out.attempted = _requests.size();
        auto &m = out.sim;
        m["events_per_req"] =
            completed ? static_cast<double>(_engine->executedEvents()) /
                            static_cast<double>(completed)
                      : 0.0;
        m["sim_kiops"] = static_cast<double>(in_window) /
                         ticksToSec(_window) / 1e3;
        m["sim_lat_p50_us"] = percentile(lat, 50);
        m["sim_lat_p99_us"] = percentile(lat, 99);
        m["sim_lat_p999_us"] = percentile(lat, 99.9);
        m["ok_frac"] =
            attempted > 0
                ? 1.0 - (static_cast<double>(o.dropped) + uncorrectable) /
                            attempted
                : 0.0;

        Digest d;
        d.add(reg.json());
        for (const auto &[k, v] : m) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "%s=%.17g\n", k.c_str(), v);
            d.add(std::string(buf));
        }
        for (const Request &r : _requests) {
            d.add(&r.due, sizeof r.due);
            d.add(&r.submit, sizeof r.submit);
            d.add(&r.done, sizeof r.done);
        }
        out.digest = d.value();
        Tick gc_first = _ssd->gc().firstGcStart();
        out.gcFirstMs = gc_first == maxTick ? 0.0 : ticksToMs(gc_first);
        out.gcLastMs = ticksToMs(_ssd->gc().lastGcEnd());

        if (perLayer)
            collectLayers(out, reg, dev, wait, gauges);
    }

    /** Called by TimedGenerator for every generated request. */
    std::size_t
    noteGenerated()
    {
        Request rec;
        rec.due = _engine->now();
        _requests.push_back(rec);
        return _requests.size() - 1;
    }

    SpanLog *spans() const { return _spans; }
    std::size_t nextRequestId() const { return _requests.size(); }

  private:
    void
    submit(const IoRequest &r, Engine::Callback cb)
    {
        TimedGenerator *g = r.tenant < _gens.size() ? _gens[r.tenant].get()
                                                    : nullptr;
        if (!g || g->unsubmitted.empty()) {
            // Not traceable to a generated request: count it and still
            // serve it so the run drains.
            ++_mismatched;
            _ssd->submit(r, std::move(cb));
            return;
        }
        auto [id, want] = g->unsubmitted.front();
        g->unsubmitted.pop_front();
        if (want.kind != r.kind || want.offset != r.offset ||
            want.bytes != r.bytes)
            ++_mismatched;
        _requests[id].submit = _engine->now();
        _requests[id].submitted = true;
        SpanScope s(_spans, "hil.submit", static_cast<std::int64_t>(id));
        _ssd->submit(r, [this, id, cb = std::move(cb)] {
            _requests[id].done = _engine->now();
            _requests[id].completed = true;
            SpanScope c(_spans, "hil.complete",
                        static_cast<std::int64_t>(id));
            cb();
        });
    }

    void
    armGc()
    {
        SpanScope s(_spans, "core.force_all");
        _ssd->gc().forceAll(kGcVictims, [this] {
            if (!_gcStopped && _engine->now() < _window)
                _engine->schedule(1, [this] { armGc(); });
        });
    }

    void
    sampleGauges(GaugeSet &g)
    {
        SpanScope s(_spans, "bench.sample_gauges");
        if (!_gaugeReg) {
            _gaugeReg = std::make_unique<StatRegistry>();
            _ssd->registerStats(*_gaugeReg, "ssd0");
            if (g.dbufWaiters.empty() && g.vcWaiters.empty() &&
                g.eccQueueDelay.empty()) {
                for (const std::string &p : _gaugeReg->paths()) {
                    if (endsWith(p, ".waiters") &&
                        p.find(".cd.dbuf_") != std::string::npos)
                        g.dbufWaiters.push_back(p);
                    else if (endsWith(p, "-buf.waiters") &&
                             p.find("ssd0.noc.") == 0)
                        g.vcWaiters.push_back(p);
                    else if (endsWith(p, "ecc.queue_delay"))
                        g.eccQueueDelay.push_back(p);
                }
            }
        }
        double dbuf = 0, vc = 0, ecc = 0;
        for (const std::string &p : g.dbufWaiters)
            dbuf += _gaugeReg->value(p);
        for (const std::string &p : g.vcWaiters)
            vc += _gaugeReg->value(p);
        for (const std::string &p : g.eccQueueDelay)
            ecc = std::max(ecc, _gaugeReg->value(p));
        g.dbufSamples.push_back(dbuf);
        g.vcSamples.push_back(vc);
        g.eccSamples.push_back(ecc / tickUs);
    }

    void collectLayers(RepResult &out, const StatRegistry &reg,
                       const std::vector<double> &dev,
                       const std::vector<double> &wait,
                       const GaugeSet *gauges);

    const WorkloadSpec &_w;
    std::uint64_t _seed;
    Tick _window;
    SpanLog *_spans;

    // Declaration order is destruction order reversed: the host
    // front-end borrows the generators, everything borrows the engine.
    std::unique_ptr<Engine> _engine;
    std::unique_ptr<Ssd> _ssd;
    std::vector<std::unique_ptr<TimedGenerator>> _gens;
    std::unique_ptr<QueueDriver> _driver;
    std::unique_ptr<NvmeHost> _host;
    std::unique_ptr<StatRegistry> _gaugeReg;

    bool _gcStopped = false;
    std::uint64_t _mismatched = 0;
    std::vector<Request> _requests;
};

std::optional<IoRequest>
TimedGenerator::next()
{
    SpanScope s(_run.spans(), "workload.next",
                static_cast<std::int64_t>(_run.nextRequestId()));
    std::optional<IoRequest> r = _inner->next();
    if (r) {
        std::size_t id = _run.noteGenerated();
        unsubmitted.emplace_back(id, *r);
    }
    return r;
}

/** Sum / max / mean of the registry values whose path ends in
 *  @p suffix under any "ssd0.chN." (or other @p scope) prefix. */
struct Agg
{
    double sum = 0;
    double max = 0;
    std::size_t n = 0;
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

Agg
aggregate(const StatRegistry &reg, const std::vector<std::string> &paths,
          const char *scope, const char *suffix)
{
    Agg a;
    for (const std::string &p : paths) {
        if (p.rfind(scope, 0) != 0 || !endsWith(p, suffix))
            continue;
        double v = reg.value(p);
        a.sum += v;
        a.max = a.n ? std::max(a.max, v) : v;
        ++a.n;
    }
    return a;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void
Run::collectLayers(RepResult &out, const StatRegistry &reg,
                   const std::vector<double> &dev,
                   const std::vector<double> &wait, const GaugeSet *gauges)
{
    auto &m = out.layer;
    const std::vector<std::string> paths = reg.paths();
    double end_ticks = static_cast<double>(std::max<Tick>(_engine->now(), 1));
    auto val = [&](const std::string &p) {
        return reg.has(p) ? reg.value(p) : 0.0;
    };

    // sim
    std::vector<double> slices;
    for (double t : out.sliceS)
        slices.push_back(t * 1e3);
    std::sort(slices.begin(), slices.end());
    std::vector<double> pending = out.slicePending;
    std::sort(pending.begin(), pending.end());
    m["sim.events"] = static_cast<double>(_engine->executedEvents());
    m["sim.slice_host_ms_p50"] = percentile(slices, 50);
    m["sim.slice_host_ms_p99"] = percentile(slices, 99);
    m["sim.pending_p99"] = percentile(pending, 99);
    m["sim.pool_capacity"] = static_cast<double>(_engine->poolCapacity());

    // workload
    m["workload.requests"] = static_cast<double>(_requests.size());

    // hil
    m["hil.device_lat_us_p50"] = percentile(dev, 50);
    m["hil.device_lat_us_p999"] = percentile(dev, 99.9);
    m["hil.sq_wait_us_p50"] = percentile(wait, 50);
    m["hil.sq_wait_us_p999"] = percentile(wait, 99.9);
    m["hil.dropped"] = static_cast<double>(out.observed.dropped);
    m[std::string("hil.slo_compliance.") + kTenant] = 0.0;
    if (_host) {
        for (unsigned t = 0; t < _host->tenantCount(); ++t) {
            m["hil.slo_compliance." + _host->tenantParams(t).name] =
                _host->tenantStats(t).sloCompliance();
        }
    }

    // ftl
    double hits = val("ssd0.wbuf.hits"), misses = val("ssd0.wbuf.misses");
    m["ftl.wbuf.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    m["ftl.flushed_pages"] = static_cast<double>(_ssd->flushedPages());
    double host_writes = static_cast<double>(_ssd->mapping().hostWrites());
    double relocations = static_cast<double>(_ssd->mapping().gcRelocations());
    m["ftl.host_page_writes"] = host_writes;
    m["ftl.gc_relocations"] = relocations;
    m["ftl.waf"] =
        host_writes > 0 ? (host_writes + relocations) / host_writes : 0.0;

    // core: mean per-page breakdowns (us) and GC
    auto breakdown = [&](const char *prefix, const LatencyBreakdown &bd,
                         bool other) {
        std::string p = prefix;
        m[p + "flash_us"] = static_cast<double>(bd.flashMem) / tickUs;
        m[p + "fbus_us"] = static_cast<double>(bd.flashBus) / tickUs;
        m[p + "sbus_us"] = static_cast<double>(bd.systemBus) / tickUs;
        m[p + "dram_us"] = static_cast<double>(bd.dram) / tickUs;
        m[p + "ecc_us"] = static_cast<double>(bd.ecc) / tickUs;
        m[p + "noc_us"] = static_cast<double>(bd.noc) / tickUs;
        if (other)
            m[p + "other_us"] = static_cast<double>(bd.other) / tickUs;
    };
    breakdown("core.bd.", _ssd->ioBreakdown().mean(), true);
    breakdown("core.cb.", _ssd->copybackBreakdown().mean(), false);
    const GcEngine &gc = _ssd->gc();
    m["core.gc.pages_moved"] = static_cast<double>(gc.pagesMoved());
    m["core.gc.rounds"] = static_cast<double>(gc.roundsStarted());
    m["core.gc.round_us_p50"] = gc.roundDuration().percentile(50) / tickUs;
    m["core.gc.round_us_p99"] = gc.roundDuration().percentile(99) / tickUs;
    m["core.gc.copy_us_p99"] = gc.copyLatency().percentile(99) / tickUs;

    // controller
    Agg chbus = aggregate(reg, paths, "ssd0.ch", ".bus.busy_ticks");
    m["controller.chbus.busy_frac_mean"] = chbus.mean() / end_ticks;
    m["controller.chbus.busy_frac_max"] = chbus.max / end_ticks;
    m["controller.chbus.gc_bytes"] =
        aggregate(reg, paths, "ssd0.ch", ".bus.bytes.gc").sum;
    m["controller.page_buffer.max_held"] =
        aggregate(reg, paths, "ssd0.ch", ".page_buffer.max_held").max;
    m["controller.cd.copybacks"] =
        aggregate(reg, paths, "ssd0.ch", ".cd.copybacks_completed").sum;
    double cb_p99 = 0;
    for (unsigned ch = 0; ch < _ssd->channelCount(); ++ch) {
        if (DecoupledController *dc = _ssd->decoupledController(ch)) {
            cb_p99 = std::max(cb_p99,
                              dc->copybackLatency().percentile(99) / tickUs);
        }
    }
    m["controller.cd.copyback_us_p99"] = cb_p99;
    m["controller.cd.dbuf_waiters"] = gauges ? mean(gauges->dbufSamples) : 0;

    // bus
    m["bus.sysbus.busy_frac"] = val("ssd0.sysbus.busy_ticks") / end_ticks;
    m["bus.sysbus.io_bytes"] = val("ssd0.sysbus.bytes.io");
    m["bus.sysbus.gc_bytes"] = val("ssd0.sysbus.bytes.gc");
    m["bus.dram.busy_frac"] = val("ssd0.dram.busy_ticks") / end_ticks;
    m["bus.dram.gc_bytes"] = val("ssd0.dram.bytes.gc");

    // ecc: front_ecc on Baseline, cd.ecc on the decoupled archs
    const char *ecc = _ssd->decoupledController(0) ? ".cd.ecc" : ".front_ecc";
    auto ecc_agg = [&](const char *what) {
        return aggregate(reg, paths, "ssd0.ch",
                         (std::string(ecc) + what).c_str());
    };
    m["ecc.pages"] = ecc_agg(".pages").sum;
    m["ecc.busy_frac_max"] = ecc_agg(".pipe.busy_ticks").max / end_ticks;
    m["ecc.queue_delay_us"] = gauges ? mean(gauges->eccSamples) : 0;
    m["ecc.retry_rounds"] = ecc_agg(".retry_rounds").sum;
    m["ecc.soft_decodes"] = ecc_agg(".soft_decodes").sum;
    m["ecc.uncorrectable"] = ecc_agg(".uncorrectable").sum;

    // noc
    NocNetwork *noc = _ssd->noc();
    m["noc.packets"] = val("ssd0.noc.packets_delivered");
    m["noc.lat_us_p50"] = noc ? noc->latency().percentile(50) / tickUs : 0;
    m["noc.lat_us_p99"] = noc ? noc->latency().percentile(99) / tickUs : 0;
    // "ssd0.noc.linkN.busy_ticks" (the "-vcX-buf" slot pools have none)
    Agg links = aggregate(reg, paths, "ssd0.noc.link", ".busy_ticks");
    m["noc.link_busy_frac_max"] = links.max / end_ticks;
    m["noc.vc_waiters"] = gauges ? mean(gauges->vcSamples) : 0;
    m["noc.retransmits"] = val("ssd0.noc.retransmits");

    // nand
    // Channel-level op counts ("ssd0.chN.reads"; the dies repeat them).
    for (const char *op : {"reads", "programs", "erases"}) {
        double sum = 0;
        for (unsigned ch = 0; ch < _ssd->channelCount(); ++ch)
            sum += val(strformat("ssd0.ch%u.%s", ch, op));
        m[std::string("nand.") + op] = sum;
    }
    Agg dies;
    for (const std::string &p : paths) {
        if (p.rfind("ssd0.ch", 0) == 0 && p.find(".die") != std::string::npos &&
            endsWith(p, ".busy_ticks")) {
            double v = reg.value(p);
            dies.sum += v;
            dies.max = std::max(dies.max, v);
            ++dies.n;
        }
    }
    // Die busy ticks count plane-time (an op on k planes adds k x its
    // duration), so normalize by the planes of a die.
    double plane_ticks = end_ticks * _ssd->config().geom.planesPerDie;
    m["nand.die_busy_frac_mean"] = dies.mean() / plane_ticks;
    m["nand.die_busy_frac_max"] = dies.max / plane_ticks;

    // fault (absent registry entries when the model is off read as 0)
    for (const char *f : {"read_retry_rounds", "reads_soft",
                          "reads_uncorrectable", "retirements",
                          "copyback_fallbacks"}) {
        m[std::string("fault.") + f] = val(std::string("ssd0.fault.") + f);
    }
}

//
// Host facts and output.
//

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double windowMs = 0; ///< 0 = the workload's window
    std::string spans;
    std::string doctor;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "seqwrite_gc|mixed_read_gc --seed N "
                 "--seconds S --trace 0|1 [--window-ms MS] [--spans FILE] "
                 "[--doctor CHECK]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        auto eq = a.find('=');
        if (eq != std::string::npos) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (i + 1 < argc) {
            v = argv[++i];
        } else {
            usage(("missing value for " + a).c_str());
        }
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--window-ms") {
            o.windowMs = std::strtod(v.c_str(), &end);
        } else if (a == "--spans") {
            o.spans = v;
        } else if (a == "--doctor") {
            o.doctor = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end)
            usage(("bad value for " + a).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

/** Metric name -> (value, unit), printed in insertion order. */
struct MetricList
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items;

    void
    add(const std::string &name, double v, const char *unit)
    {
        items.push_back({name, {v, unit}});
    }
};

const char *
layerUnit(const std::string &name)
{
    if (endsWith(name, "per_host_s"))
        return "1/s";
    if (endsWith(name, "_s"))
        return "s";
    if (endsWith(name, "_us") || name.find("_us_") != std::string::npos)
        return "us";
    if (endsWith(name, "_ms_p50") || endsWith(name, "_ms_p99"))
        return "ms";
    if (name.find("frac") != std::string::npos ||
        name.find("ratio") != std::string::npos ||
        name.find("compliance") != std::string::npos)
        return "ratio";
    if (endsWith(name, "_bytes"))
        return "bytes";
    if (endsWith(name, ".waf"))
        return "ratio";
    return "count";
}

/** Per-layer metrics that are structurally zero on @p w, with why. */
std::vector<std::string>
notApplicable(const WorkloadSpec &w)
{
    std::vector<std::string> out;
    if (w.arch == ArchKind::Baseline) {
        out.push_back("noc.*, controller.cd.*, core.bd.noc_us, "
                      "core.cb.noc_us: Baseline has no fNoC and no "
                      "decoupled controllers");
    }
    if (!w.faults)
        out.push_back("fault.*: the fault model is off on this workload");
    if (w.hostSloUs <= 0) {
        out.push_back("hil.slo_compliance.*: QueueDriver front-end, no "
                      "tenants or SLOs");
    }
    out.push_back("hil.dropped, hil.sq_wait_*: closed loop; a request is "
                  "generated when it can be submitted, and none is left "
                  "queued at stop");
    if (w.buffer != BufferMode::Real)
        out.push_back("ftl.wbuf.hit_ratio, ftl.flushed_pages: the write "
                      "buffer is bypassed (always miss)");
    else if (w.readRatio <= 0)
        out.push_back("ftl.wbuf.hit_ratio: a write-only stream makes no "
                      "read lookups in the buffer");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    std::optional<WorkloadSpec> spec = findWorkload(opt.workload);
    if (!spec)
        usage(("unknown workload " + opt.workload).c_str());
    const WorkloadSpec &w = *spec;
    Tick window = opt.windowMs > 0 ? msToTicks(opt.windowMs) : w.window;

    Clock::time_point start = Clock::now();
    std::printf("perfbench %s seed=%" PRIu64 " trace=%d window=%.0fms\n",
                w.name.c_str(), opt.seed, opt.trace ? 1 : 0,
                ticksToMs(window));
    std::printf("build %s; the simulated model is unvalidated against "
                "hardware (no error figure)\n",
                PERFBENCH_BUILD_TYPE);

    // Repetitions of the identical seeded simulation. With --trace 1
    // they alternate untraced / traced so the overhead is measured on
    // the same host state. Untraced runs of a workload with a timing
    // window simulate the whole window once, for the outputs, and time
    // repetitions of the timing window.
    Tick timing = window;
    if (!opt.trace && opt.windowMs <= 0 && w.timingWindow > 0)
        timing = w.timingWindow;
    std::vector<RepResult> plain, traced;
    std::unique_ptr<SpanLog> lastSpans;
    GaugeSet gauges;
    std::vector<double> setups;
    double peak_rss_mb = 0;
    auto elapsed = [&] { return secondsBetween(start, Clock::now()); };
    std::size_t timed_reps = 0;
    double rep_s = 0; ///< host time of the latest repetition
    for (int rep = 0;; ++rep) {
        double rep_start = elapsed();
        Tick rep_window = rep == 0 ? window : timing;
        bool traced_rep = opt.trace && rep % 2 == 1;
        std::unique_ptr<SpanLog> spans;
        if (traced_rep)
            spans = std::make_unique<SpanLog>(Clock::now());
        RepResult r;
        GaugeSet *g = traced_rep ? &gauges : nullptr;
        if (g) {
            g->dbufSamples.clear();
            g->vcSamples.clear();
            g->eccSamples.clear();
        }
        {
            Run run(w, opt.seed, rep_window, spans.get());
            run.setup(r);
            run.simulate(r, g);
            run.collect(r, traced_rep, g);
        }
        r.window = rep_window;
        setups.push_back(r.setupS);
        // The output checks read the first repetition's requests; the
        // others only need their digest.
        if (rep > 0)
            std::vector<Request>().swap(r.observed.requests);
        // Peak RSS of one set-up plus one simulation, before later
        // repetitions can add allocator fragmentation to it.
        if (rep == 0)
            peak_rss_mb = peakRssMb();
        if (traced_rep) {
            std::map<std::string, double> self = spans->selfTimes();
            for (const auto &[name, t] : self)
                r.layer["span." + name + ".self_s"] = t;
            r.layer["sim.run_host_s"] =
                spans->total("sim.run_until") + spans->total("sim.run");
            r.layer["workload.gen_host_s"] = spans->total("workload.next");
            r.layer["hil.submit_host_s"] = spans->total("hil.submit");
            r.layer["ftl.prefill_host_s"] = spans->total("ftl.prefill");
            r.layer["core.gc.force_host_s"] = spans->total("core.force_all");
            lastSpans = std::move(spans);
            traced.push_back(std::move(r));
        } else {
            timed_reps += rep_window == timing;
            plain.push_back(std::move(r));
        }
        // Stop when the next repetition (a plain/traced pair under
        // --trace 1) would overrun the budget; always finish a pair,
        // and make two untraced timed repetitions so determinism is
        // checked.
        rep_s = elapsed() - rep_start;
        if ((opt.trace && traced.size() < plain.size()) || timed_reps < 2)
            continue;
        if (elapsed() + rep_s * (opt.trace ? 2 : 1) > opt.seconds)
            break;
    }
    // Set-up is cheap next to a repetition; time a few more so its
    // median rests on at least five samples.
    while (setups.size() < 5) {
        RepResult r;
        Run run(w, opt.seed, window, nullptr);
        run.setup(r);
        setups.push_back(r.setupS);
    }

    // Output checks on the first repetition, plus determinism across
    // every repetition of the run.
    RepResult &first = plain.front();
    if (opt.doctor == "deterministic")
        plain.back().digest ^= 1;
    else if (opt.doctor == "spans_cover_run" && opt.trace)
        traced.back().unspannedS += 1.0;
    else if (!opt.doctor.empty() && !doctor(first.observed, opt.doctor))
        usage(("--doctor " + opt.doctor +
               " does not apply to this workload").c_str());
    std::vector<Check> checks = runChecks(first.observed, opt.windowMs <= 0);
    bool same_digest = true;
    std::map<Tick, std::uint64_t> digest_of_window;
    for (const auto *set : {&plain, &traced}) {
        for (const RepResult &r : *set) {
            auto it = digest_of_window.emplace(r.window, r.digest).first;
            same_digest = same_digest && r.digest == it->second;
        }
    }
    checks.push_back(Check{"deterministic", same_digest,
                           same_digest ? 0 : first.attempted,
                           "every repetition of a window gives the same "
                           "digest"});

    std::uint64_t attempted = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const RepResult &r : *set)
            attempted += r.attempted;
    }
    std::uint64_t failed = 0;
    bool correct = true;
    for (const Check &c : checks) {
        correct = correct && c.ok;
        failed = std::max(failed, c.failedRequests);
        std::printf("check %-24s %s  %s\n", c.name.c_str(),
                    c.ok ? "ok  " : "FAIL", c.detail.c_str());
    }
    if (!correct)
        failed = std::max<std::uint64_t>(failed, 1);

    std::vector<double> runs;
    for (const RepResult &r : plain) {
        if (r.window == timing)
            runs.push_back(r.runS);
    }
    double run_s = fastestSegmentsS(plain, timing);

    MetricList out;
    if (!opt.trace) {
        out.add("setup_s", median(setups), "s");
        out.add("run_s", run_s, "s");
        out.add("peak_rss_mb", peak_rss_mb, "MiB");
        out.add("events_per_req", first.sim["events_per_req"], "count");
        out.add("sim_kiops", first.sim["sim_kiops"], "kIOPS");
        out.add("sim_lat_p50_us", first.sim["sim_lat_p50_us"], "us");
        out.add("sim_lat_p99_us", first.sim["sim_lat_p99_us"], "us");
        out.add("sim_lat_p999_us", first.sim["sim_lat_p999_us"], "us");
        out.add("ok_frac", first.sim["ok_frac"], "ratio");
    } else {
        RepResult &t = traced.back();
        double untraced_s = run_s;
        double traced_s = fastestSegmentsS(traced, window);
        t.layer["sim.events_per_host_s"] =
            t.layer["sim.events"] / std::max(untraced_s, 1e-9);
        t.layer["trace.untraced_run_s"] = untraced_s;
        t.layer["trace.traced_run_s"] = traced_s;
        t.layer["trace.overhead_s"] = traced_s - untraced_s;
        t.layer["trace.unspanned_s"] = t.unspannedS;
        for (const char *span :
             {"ssd.construct", "ftl.prefill", "workload.next", "hil.submit",
              "hil.complete", "sim.run_until", "sim.run", "core.force_all",
              "stats.read", "bench.sample_gauges"}) {
            std::string key = std::string("span.") + span + ".self_s";
            if (!t.layer.count(key))
                t.layer[key] = 0.0;
        }
        // The spans' self times inside the run must add up to the
        // traced run_s; what they miss is loop overhead, which has to
        // stay within the measured tracing overhead.
        double slack = std::max(std::fabs(traced_s - untraced_s), 1e-3);
        bool closes = t.unspannedS >= -1e-6 && t.unspannedS <= slack;
        std::printf("check %-24s %s  run_s %.6f s, unspanned %.6f s, "
                    "overhead %.6f s\n",
                    "spans_cover_run", closes ? "ok  " : "FAIL",
                    t.runS, t.unspannedS, traced_s - untraced_s);
        if (!closes) {
            correct = false;
            failed = std::max<std::uint64_t>(failed, 1);
        }
        for (const auto &[name, v] : t.layer)
            out.add(name, v, layerUnit(name));
        for (const std::string &na : notApplicable(w))
            std::printf("n/a (reported as 0) %s\n", na.c_str());
        if (!opt.spans.empty()) {
            if (lastSpans->write(opt.spans))
                std::printf("spans: %zu written to %s\n",
                            lastSpans->spans().size(), opt.spans.c_str());
            else
                std::printf("spans: could not write %s\n", opt.spans.c_str());
        }
    }

    std::printf("reps: %zu untraced, %zu traced; setups %zu; "
                "completed/rep %" PRIu64 "; elapsed %.3f s\n",
                plain.size(), traced.size(), setups.size(),
                first.observed.completed, elapsed());
    std::printf("run_s: %zu repetitions of a %.0f ms window (whole runs; "
                "median %.4f):",
                runs.size(), ticksToMs(timing), median(runs));
    for (double r : runs)
        std::printf(" %.4f", r);
    std::printf("\nsetup_s per set-up:");
    for (double r : setups)
        std::printf(" %.4f", r);
    std::printf("\n");
    std::printf("gc: active from %.3f ms to %.3f ms of a %.0f ms window\n",
                first.gcFirstMs, first.gcLastMs, ticksToMs(window));
    std::printf("digest: %016" PRIx64 "\n", first.digest);
    for (const auto &[name, vu] : out.items)
        std::printf("metric %-34s %.9g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += strformat(", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                      ", \"metrics\": {",
                      attempted, failed);
    for (std::size_t i = 0; i < out.items.size(); ++i) {
        const auto &[name, vu] = out.items[i];
        double v = std::isfinite(vu.first) ? vu.first : 0.0;
        json += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", name.c_str(), v, vu.second.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
