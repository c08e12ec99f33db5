/**
 * @file
 * One benchmark job: builds one Fig. 7 kernel on the medium MCM-4
 * platform, runs it on the serial or the domain engine, optionally with
 * the monitor attached and HTTP traffic against it, checks the outputs,
 * and prints one JSON object describing the job on stdout.
 *
 * run.py starts one process per job, so a domain run that loses a wake
 * and never returns is killed by its watchdog instead of wedging the
 * benchmark.
 *
 *   rtmbench_job --kernel im2col --engine serial --traffic poll
 *                --seed 7 --spans spans.jsonl --record rec.seg
 *
 * --traffic none      bare run (no monitor)
 * --traffic dashboard monitor + the paper's active dashboard: status,
 *                     progress, resources and one component click,
 *                     once per second on one gzip connection
 * --traffic poll      monitor + open-loop Poisson load at kPollRate req/s
 *                     over two keep-alive connections (gzip, identity)
 *
 * With --spans the job records spans around every call it makes into
 * a layer, runs the engine-lock probes and times Json::dump and
 * compressBody; the spans go to the --spans file as JSON lines. Kernels
 * are built at kScale, the scale goldens.json was recorded at.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "sim/domain_engine.hh"
#include "sim/pool.hh"
#include "web/client.hh"
#include "web/encoding.hh"
#include "workloads/workloads.hh"

using namespace akita;

namespace
{

using Clock = std::chrono::steady_clock;

/** Problem-size scale of every kernel. */
constexpr double kScale = 0.1;
/** Request rate of --traffic poll, over both connections, in req/s. */
constexpr double kPollRate = 2000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string kernel = "im2col";
    std::string engine = "serial";
    std::string traffic = "none";
    std::uint64_t seed = 1;
    std::string spansPath; // Empty: untraced.
    std::string recordPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "rtmbench_job: %s\n", why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string v = argv[++i];
        if (key == "--kernel")
            o.kernel = v;
        else if (key == "--engine")
            o.engine = v;
        else if (key == "--traffic")
            o.traffic = v;
        else if (key == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (key == "--spans")
            o.spansPath = v;
        else if (key == "--record")
            o.recordPath = v;
        else
            usage(("unknown option " + key).c_str());
    }
    if (o.engine != "serial" && o.engine != "domain")
        usage("--engine must be serial or domain");
    if (o.traffic != "none" && o.traffic != "dashboard" &&
        o.traffic != "poll")
        usage("--traffic must be none, dashboard or poll");
    return o;
}

/**
 * In-memory span log. A span names the layer the benchmark called
 * into; spans of one HTTP request share its request id.
 */
class Trace
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        // HTTP request spans only.
        std::string route;
        std::uint64_t dueNs = 0;
        std::uint64_t req = 0;
        int conn = -1;
    };

    explicit Trace(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    std::uint64_t
    ns(Clock::time_point t) const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
                .count());
    }

    /** Reserves an id for a span whose children end before it does. */
    std::uint64_t
    reserve()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return ++nextId_;
    }

    /** Records @p s, giving it a fresh id unless it has a reserved one. */
    void
    add(Span s)
    {
        if (!on_)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        if (s.id == 0)
            s.id = ++nextId_;
        spans_.push_back(std::move(s));
    }

    /** Records a span named @p name over [t0, t1]. */
    void
    span(const std::string &name, Clock::time_point t0, Clock::time_point t1,
         std::uint64_t parent = 0, std::uint64_t id = 0)
    {
        Span s;
        s.id = id;
        s.parent = parent;
        s.name = name;
        s.startNs = ns(t0);
        s.endNs = ns(t1);
        add(std::move(s));
    }

    /** Runs @p fn inside a span named @p name; returns its seconds. */
    double
    timed(const std::string &name, const std::function<void()> &fn,
          std::uint64_t parent = 0)
    {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        span(name, t0, t1, parent);
        return std::chrono::duration<double>(t1 - t0).count();
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const auto &s : spans_) {
            json::Json j = json::Json::object();
            j.set("id", s.id);
            j.set("parent", s.parent);
            j.set("name", s.name);
            j.set("start_ns", s.startNs);
            j.set("end_ns", s.endNs);
            if (!s.route.empty()) {
                j.set("route", s.route);
                j.set("due_ns", s.dueNs);
                j.set("req", s.req);
                j.set("conn", s.conn);
            }
            out << j.dump() << '\n';
        }
        return static_cast<bool>(out);
    }

  private:
    bool on_;
    Clock::time_point t0_;
    std::mutex mu_;
    std::uint64_t nextId_ = 0;
    std::vector<Span> spans_;
};

std::string
urlEncode(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : s) {
        if (std::isalnum(c) || c == '.' || c == '_' || c == '-' ||
            c == '~') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

/**
 * Checks a Prometheus text exposition: every line is blank, a comment,
 * or `name{labels} value` with a numeric value.
 */
bool
validExposition(const std::string &body)
{
    if (body.empty())
        return false;
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        if (!(std::isalpha(static_cast<unsigned char>(line[0])) ||
              line[0] == '_' || line[0] == ':'))
            return false;
        std::size_t brace = line.find('{');
        std::size_t space;
        if (brace != std::string::npos &&
            brace < line.find(' ')) {
            std::size_t close = line.rfind('}');
            if (close == std::string::npos || close < brace)
                return false;
            space = line.find(' ', close);
        } else {
            space = line.find(' ');
        }
        if (space == std::string::npos)
            return false;
        std::string value = line.substr(space + 1);
        std::size_t ts = value.find(' ');
        if (ts != std::string::npos)
            value.resize(ts);
        if (value == "NaN" || value == "+Inf" || value == "-Inf")
            continue;
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            return false;
    }
    return true;
}

/**
 * Median of a Prometheus histogram, interpolated linearly inside the
 * bucket that holds it.
 */
double
histogramMedian(const std::string &body, const std::string &name)
{
    std::vector<std::pair<double, double>> buckets; // (le, cumulative)
    std::string prefix = name + "_bucket{le=\"";
    std::size_t pos = 0;
    while ((pos = body.find(prefix, pos)) != std::string::npos) {
        pos += prefix.size();
        std::size_t q = body.find('"', pos);
        std::string le = body.substr(pos, q - pos);
        std::size_t sp = body.find(' ', q);
        std::size_t eol = body.find('\n', sp);
        double count = std::atof(body.substr(sp + 1, eol - sp - 1).c_str());
        double bound = le == "+Inf" ? 1e300 : std::atof(le.c_str());
        buckets.emplace_back(bound, count);
    }
    if (buckets.empty() || buckets.back().second <= 0)
        return 0;
    double half = buckets.back().second / 2;
    double lo = 0, below = 0;
    for (const auto &[le, cum] : buckets) {
        if (cum >= half) {
            double hi = le > 1e299 ? lo * 10 : le;
            double frac = cum > below ? (half - below) / (cum - below) : 0;
            return lo + frac * (hi - lo);
        }
        lo = le;
        below = cum;
    }
    return lo;
}

/** One HTTP request the traffic generator made. */
struct Request
{
    std::string route;
    double latencyMs = 0; // Done minus due.
    double lateMs = 0;    // Sent minus max(due, previous done).
    bool failed = false;
};

/** Checks and times the requests of one client connection. */
class Client
{
  public:
    Client(std::uint16_t port, int conn, bool gzip, Trace &trace,
           std::vector<std::string> &errors, std::mutex &errorsMu)
        : http_("127.0.0.1", port), conn_(conn), gzip_(gzip),
          trace_(trace), errors_(errors), errorsMu_(errorsMu)
    {
    }

    /**
     * Sends @p target (due at @p due) and records the request; a
     * request that cannot be checked counts as failed.
     */
    void
    send(const std::string &route, const std::string &target,
         Clock::time_point due)
    {
        Clock::time_point sent = Clock::now();
        std::vector<std::pair<std::string, std::string>> headers;
        if (gzip_)
            headers.emplace_back("Accept-Encoding", "gzip");
        auto resp = http_.get(target, headers);
        Clock::time_point done = Clock::now();

        Request r;
        r.route = route;
        r.latencyMs =
            std::chrono::duration<double, std::milli>(done - due).count();
        Clock::time_point ready = std::max(due, lastDone_);
        r.lateMs = std::max(
            0.0,
            std::chrono::duration<double, std::milli>(sent - ready).count());
        lastDone_ = done;

        // A transport error, a non-200 status or a body that fails its
        // check is a failed request and a wrong output.
        std::string problem;
        if (!resp)
            problem = "transport error";
        else if (resp->status != 200)
            problem = "status " + std::to_string(resp->status);
        else
            problem = checkBody(route, *resp);
        if (!problem.empty()) {
            std::lock_guard<std::mutex> lk(errorsMu_);
            if (errors_.size() < 20)
                errors_.push_back(target + ": " + problem);
        }
        if (!problem.empty()) {
            r.failed = true;
        } else if (gzip_) {
            wireBytes_ += resp->wireBodyBytes;
            bodyBytes_ += resp->body.size();
        }
        requests_.push_back(std::move(r));

        Trace::Span s;
        s.name = "web.request";
        s.route = route;
        s.startNs = trace_.ns(sent);
        s.endNs = trace_.ns(done);
        s.dueNs = trace_.ns(due);
        s.req = (static_cast<std::uint64_t>(conn_) << 32) |
                requests_.size();
        s.conn = conn_;
        trace_.add(std::move(s));
    }

    std::vector<Request> &requests() { return requests_; }
    std::uint64_t wireBytes() const { return wireBytes_; }
    std::uint64_t bodyBytes() const { return bodyBytes_; }

  private:
    /**
     * Content check: /metrics parses as the exposition format, every
     * other route as JSON, and a gzip response really was compressed
     * (the client has already inflated it). A body identical to the
     * last good one of its route is not parsed again.
     */
    std::string
    checkBody(const std::string &route, const web::ParsedResponse &resp)
    {
        auto enc = resp.headers.find("content-encoding");
        if (enc != resp.headers.end() &&
            (!gzip_ || enc->second != "gzip" ||
             resp.wireBodyBytes >= resp.body.size()))
            return "unexpected content-encoding " + enc->second;
        std::string &last = lastGood_[route];
        if (resp.body == last)
            return "";
        if (route == "metrics") {
            if (!validExposition(resp.body))
                return "malformed exposition";
        } else {
            try {
                json::Json::parse(resp.body);
            } catch (const std::exception &e) {
                return std::string("malformed JSON: ") + e.what();
            }
        }
        last = resp.body;
        return "";
    }

    web::PersistentClient http_;
    int conn_;
    bool gzip_;
    Trace &trace_;
    std::vector<std::string> &errors_;
    std::mutex &errorsMu_;
    std::vector<Request> requests_;
    std::map<std::string, std::string> lastGood_;
    Clock::time_point lastDone_{};
    std::uint64_t wireBytes_ = 0;
    std::uint64_t bodyBytes_ = 0;
};

/**
 * Tells the traffic threads when the measured run ended. Requests due
 * before that instant are still sent, late if a stall held them up, so
 * the stall shows in their latency instead of being dropped.
 */
class StopClock
{
  public:
    void
    stop()
    {
        std::lock_guard<std::mutex> lk(mu_);
        at_ = Clock::now();
        stopped_ = true;
    }

    /** Sleeps until @p due; false when the run ended before @p due. */
    bool
    waitUntil(Clock::time_point due) const
    {
        while (true) {
            auto now = Clock::now();
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (stopped_)
                    return due <= at_;
            }
            if (now >= due)
                return true;
            std::this_thread::sleep_for(std::min<Clock::duration>(
                due - now, std::chrono::milliseconds(20)));
        }
    }

  private:
    mutable std::mutex mu_;
    bool stopped_ = false;
    Clock::time_point at_{};
};

/** The paper's active dashboard: one refresh wave per second. */
void
dashboardTraffic(Client &client, const std::vector<std::string> &names,
                 std::uint64_t seed, const StopClock &stop)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, names.size() - 1);
    auto due = Clock::now() +
               std::chrono::milliseconds(
                   std::uniform_int_distribution<int>(0, 999)(rng));
    while (stop.waitUntil(due)) {
        client.send("status", "/api/status", due);
        client.send("progress", "/api/progress", due);
        client.send("resources", "/api/resources", due);
        client.send("component",
                    "/api/component?name=" + urlEncode(names[pick(rng)]),
                    due);
        due += std::chrono::seconds(1);
    }
}

/**
 * Open-loop Poisson traffic at @p rate req/s on one connection, in
 * rounds of five shared reads (served from the response cache) and
 * three distinct-key reads (which bypass it).
 */
void
pollTraffic(Client &client, const std::vector<std::string> &names,
            const std::vector<std::string> &cus, double rate,
            std::uint64_t seed, const StopClock &stop)
{
    struct Slot
    {
        const char *route;
        const char *target; // Empty: distinct-key, built per request.
    };
    std::vector<Slot> round = {
        {"status", "/api/status"},
        {"progress", "/api/progress"},
        {"components", "/api/components"},
        {"buffers", "/api/buffers?sort=percent&top=50"},
        {"metrics", "/metrics"},
        {"component", ""},
        {"component", ""},
        {"metrics_query", ""},
    };
    const std::int64_t steps[] = {250, 500, 1000, 2000};
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::size_t> pickName(0, names.size() - 1);
    std::uniform_int_distribution<std::size_t> pickCu(0, cus.size() - 1);
    std::uniform_int_distribution<int> pickStep(0, 3);

    auto due = Clock::now();
    std::size_t i = round.size();
    while (true) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap(rng)));
        if (!stop.waitUntil(due))
            return;
        if (i == round.size()) {
            std::shuffle(round.begin(), round.end(), rng);
            i = 0;
        }
        const Slot &slot = round[i++];
        std::string target = slot.target;
        if (target.empty() && std::string(slot.route) == "component") {
            target = "/api/component?name=" + urlEncode(names[pickName(rng)]);
        } else if (target.empty()) {
            target = "/api/v1/metrics/query?name=akita_cu_completed_wgs_"
                     "total&component=" +
                     urlEncode(cus[pickCu(rng)]) +
                     "&step=" + std::to_string(steps[pickStep(rng)]);
        }
        client.send(slot.route, target, due);
    }
}

/**
 * Engine-lock probes (traced runs only): Engine::withLock and
 * Engine::queueLength, as a monitor request makes them, each called
 * ten times a second.
 */
void
probeEngine(sim::Engine &engine, Trace &trace, std::vector<double> &lockUs,
            std::vector<double> &queueUs, const StopClock &stop)
{
    auto due = Clock::now();
    bool lock = true;
    while (stop.waitUntil(due)) {
        auto t0 = Clock::now();
        if (lock)
            engine.withLock([]() {});
        else
            engine.queueLength();
        auto t1 = Clock::now();
        double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
        (lock ? lockUs : queueUs).push_back(us);
        Trace::Span s;
        s.name = lock ? "sim.withLock" : "sim.queueLength";
        s.startNs = trace.ns(t0);
        s.endNs = trace.ns(t1);
        trace.add(std::move(s));
        lock = !lock;
        // A stalled probe does not queue up missed ones.
        due = std::max(due + std::chrono::milliseconds(50), Clock::now());
    }
}

json::Json
numbers(const std::vector<double> &v)
{
    json::Json a = json::Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

/** Median seconds of @p reps calls of @p fn. */
double
medianSeconds(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; i++) {
        auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

/**
 * The simulated counts of a finished run, read from the components:
 * work-groups completed, cache, DRAM, RDMA, network and port traffic,
 * and the slab pool and domain-engine counters.
 */
json::Json
readCounters(gpu::Platform &plat)
{
    std::uint64_t wgs = 0, l1Hit = 0, l1Miss = 0, l2Hit = 0, l2Miss = 0,
                  dram = 0, rdma = 0;
    for (auto &chip : plat.gpus()) {
        for (auto *cu : chip.cus)
            wgs += cu->completedWGs();
        for (auto *l1 : chip.l1s) {
            l1Hit += l1->directory().hits();
            l1Miss += l1->directory().misses();
        }
        for (auto *l2 : chip.l2s) {
            l2Hit += l2->directory().hits();
            l2Miss += l2->directory().misses();
        }
        for (auto *d : chip.drams)
            dram += d->totalReads() + d->totalWrites();
        if (chip.rdma != nullptr)
            rdma += chip.rdma->totalForwardedOut();
    }
    std::uint64_t sent = 0, rejected = 0, netSent = 0;
    for (auto *c : plat.components()) {
        for (const auto &p : c->ports()) {
            sent += p->totalSent();
            rejected += p->totalSendRejections();
        }
    }
    for (auto *p : plat.network().attachedPorts())
        netSent += p->totalSent();
    json::Json counters = json::Json::object();
    counters.set("wgs_completed", wgs);
    counters.set("l1_hits", l1Hit);
    counters.set("l1_misses", l1Miss);
    counters.set("l2_hits", l2Hit);
    counters.set("l2_misses", l2Miss);
    counters.set("dram_accesses", dram);
    counters.set("rdma_forwarded", rdma);
    counters.set("net_sent_msgs", netSent);
    counters.set("port_sent", sent);
    counters.set("port_rejected", rejected);
    sim::PoolStats pool = sim::poolStats();
    counters.set("pool_slab_bytes", pool.slabBytes);
    counters.set("pool_oversize_allocs", pool.oversizeAllocs);
    if (auto *de = dynamic_cast<sim::DomainEngine *>(&plat.engine())) {
        counters.set("domain_fast", de->mailboxFastTotal());
        counters.set("domain_slow", de->mailboxSlowTotal());
        int n = de->numDomains();
        double maxEv = 0, sumEv = 0;
        for (int d = 0; d < n; d++) {
            double ev = static_cast<double>(de->domainStatus(d).events);
            maxEv = std::max(maxEv, ev);
            sumEv += ev;
        }
        counters.set("domains", n);
        counters.set("domain_imbalance", sumEv > 0 ? maxEv * n / sumEv : 0.0);
    }
    return counters;
}

/** Latencies by route, lateness and gzip byte counts of all requests. */
json::Json
summarizeRequests(const std::vector<std::unique_ptr<Client>> &clients)
{
    std::map<std::string, std::vector<double>> byRoute;
    std::vector<double> late;
    std::uint64_t attempted = 0, failed = 0, wire = 0, body = 0;
    for (const auto &c : clients) {
        for (const Request &r : c->requests()) {
            attempted++;
            late.push_back(r.lateMs);
            if (r.failed)
                failed++;
            else
                byRoute[r.route].push_back(r.latencyMs);
        }
        wire += c->wireBytes();
        body += c->bodyBytes();
    }
    json::Json reqs = json::Json::object();
    reqs.set("attempted", attempted);
    reqs.set("failed", failed);
    reqs.set("gzip_wire_bytes", wire);
    reqs.set("gzip_body_bytes", body);
    json::Json lat = json::Json::object();
    for (const auto &[route, v] : byRoute)
        lat.set(route, numbers(v));
    reqs.set("latency_ms", std::move(lat));
    reqs.set("gen_late_ms", numbers(late));
    return reqs;
}

/**
 * After the run: checks that the response cache and the gzip coding
 * serve the same bytes as an uncached identity build, reads the serving
 * counters, and (traced runs) times Json::dump and compressBody on the
 * monitor's own bodies. Appends wrong outputs to @p errors.
 */
json::Json
afterRun(rtm::Monitor &mon, Trace &trace, std::uint64_t postSpan,
         std::vector<std::string> &errors)
{
    web::PersistentClient http("127.0.0.1", mon.serverPort());
    // Let the cache TTL floor lapse so cached bodies reflect the final,
    // static state.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::string componentsBody;
    for (const std::string target :
         {"/api/components", "/api/buffers?sort=percent&top=50",
          "/api/progress"}) {
        auto cached = http.get(target);
        auto fresh = http.get(target, {{"x-akita-no-cache", "1"}});
        auto gz = http.get(target, {{"Accept-Encoding", "gzip"}});
        if (!cached || !fresh || !gz || cached->status != 200 ||
            fresh->status != 200 || gz->status != 200)
            errors.push_back(target + ": post-run fetch failed");
        else if (cached->body != fresh->body)
            errors.push_back(target + ": cached body differs from uncached");
        else if (gz->body != cached->body)
            errors.push_back(target + ": gzip body does not decode to identity");
        else if (target == "/api/components")
            componentsBody = cached->body;
    }

    json::Json serving = json::Json::object();
    auto metrics = http.get("/metrics");
    if (!metrics || metrics->status != 200 ||
        !validExposition(metrics->body)) {
        errors.push_back("/metrics: post-run fetch failed or malformed");
    } else {
        serving.set("exposition_kb", metrics->body.size() / 1024.0);
        serving.set("sample_pass_us_p50",
                    1e6 * histogramMedian(metrics->body,
                                          "akita_metrics_sample_pass_seconds"));
    }
    const rtm::ResponseCache &cache = mon.responseCache();
    serving.set("cache_hit", cache.hitCount());
    serving.set("cache_miss", cache.missCount());
    serving.set("cache_coalesced", cache.coalesceCount());
    if (auto *rec = mon.recorder()) {
        auto info = rec->info();
        serving.set("recorder_records", info.nextSeq);
        serving.set("recorder_mb", info.cursor / 1e6);
    }
    if (trace.on() && !componentsBody.empty()) {
        json::Json tree;
        trace.timed("rtm.Monitor.componentTree",
                    [&]() { tree = mon.componentTree(); }, postSpan);
        std::string dumped;
        double dumpS = medianSeconds(5, [&]() {
            trace.timed("json.Json.dump", [&]() { dumped = tree.dump(); },
                        postSpan);
        });
        serving.set("json_dump_mb_per_s", dumped.size() / dumpS / 1e6);
        std::string packed;
        double gzS = medianSeconds(5, [&]() {
            trace.timed("web.compressBody", [&]() {
                web::compressBody(web::ContentEncoding::Gzip, componentsBody,
                                  packed);
            }, postSpan);
        });
        serving.set("compress_mb_per_s", componentsBody.size() / gzS / 1e6);
    }
    trace.timed("rtm.Monitor.stopServer", [&]() { mon.stopServer(); },
                postSpan);
    return serving;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const bool traced = !opt.spansPath.empty();
    Trace trace(traced);
    json::Json out = json::Json::object();
    out.set("kernel", opt.kernel);
    out.set("scale", kScale);
    out.set("engine", opt.engine);
    out.set("traffic", opt.traffic);
    std::vector<std::string> errors;
    std::mutex errorsMu;

    // ---- Set-up: kernel build, platform, monitor, server. ----
    auto setupStart = Clock::now();
    const std::uint64_t setupSpan = trace.reserve();
    std::vector<workloads::Benchmark> suite;
    double kernelBuild = trace.timed("workloads.paperSuite", [&]() {
        suite = workloads::paperSuite(kScale);
    }, setupSpan);
    auto it = std::find_if(suite.begin(), suite.end(), [&](const auto &b) {
        return b.name == opt.kernel;
    });
    if (it == suite.end())
        usage(("unknown kernel " + opt.kernel).c_str());
    gpu::KernelDescriptor kernel = it->kernel;

    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::medium());
    // DomainEngine takes one domain per hardware thread (domains = 0).
    if (opt.engine == "domain")
        cfg.engineKind = gpu::EngineKind::Domain;
    std::unique_ptr<gpu::Platform> plat;
    double platformBuild = trace.timed("gpu.Platform", [&]() {
        plat = std::make_unique<gpu::Platform>(cfg);
    }, setupSpan);

    std::unique_ptr<rtm::Monitor> mon;
    double monitorSetup = 0, serverStart = 0;
    if (opt.traffic != "none") {
        monitorSetup = trace.timed("rtm.Monitor.register", [&]() {
            rtm::MonitorConfig mcfg;
            mcfg.announceUrl = false;
            mcfg.recordPath = opt.recordPath;
            mon = std::make_unique<rtm::Monitor>(mcfg);
            mon->registerEngine(&plat->engine());
            mon->registerComponents(plat->components());
            plat->driver().setProgressListener(mon.get());
        }, setupSpan);
        bool started = false;
        serverStart = trace.timed(
            "rtm.Monitor.startServer",
            [&]() { started = mon->startServer(); }, setupSpan);
        if (!started) {
            std::fprintf(stderr, "monitor server failed to start\n");
            return 1;
        }
    }
    trace.timed("gpu.launchKernel", [&]() { plat->launchKernel(&kernel); },
                setupSpan);
    trace.span("bench.setup", setupStart, Clock::now(), 0, setupSpan);
    json::Json setup = json::Json::object();
    setup.set("kernel_build_s", kernelBuild);
    setup.set("platform_build_s", platformBuild);
    setup.set("monitor_s", monitorSetup);
    setup.set("server_s", serverStart);
    setup.set("total_s", secondsSince(setupStart));
    out.set("setup", std::move(setup));

    // ---- Traffic and probes, live while the simulation runs. ----
    std::vector<std::string> names;
    std::vector<std::string> cus;
    for (auto *c : plat->components())
        names.push_back(c->name());
    for (auto &chip : plat->gpus())
        for (auto *cu : chip.cus)
            cus.push_back(cu->name());

    StopClock stop;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::thread> threads;
    std::vector<double> lockUs, queueUs;
    if (mon) {
        std::uint16_t port = mon->serverPort();
        if (opt.traffic == "dashboard") {
            clients.push_back(std::make_unique<Client>(port, 0, true, trace,
                                                       errors, errorsMu));
            threads.emplace_back([&]() {
                dashboardTraffic(*clients[0], names, opt.seed, stop);
            });
        } else {
            // Connection 0 is a browser (gzip), connection 1 a CLI or
            // Prometheus client (identity); each carries half the rate.
            for (int c = 0; c < 2; c++)
                clients.push_back(std::make_unique<Client>(
                    port, c, c == 0, trace, errors, errorsMu));
            for (int c = 0; c < 2; c++) {
                threads.emplace_back([&, c]() {
                    pollTraffic(*clients[c], names, cus, kPollRate / 2,
                                opt.seed * 2 + c, stop);
                });
            }
        }
        if (traced) {
            threads.emplace_back([&]() {
                probeEngine(plat->engine(), trace, lockUs, queueUs, stop);
            });
        }
    }

    // ---- The measured run. ----
    auto runStart = Clock::now();
    gpu::Platform::RunStatus status = plat->run();
    auto runEnd = Clock::now();
    stop.stop();
    for (auto &t : threads)
        t.join();
    trace.span("gpu.Platform.run", runStart, runEnd);
    double runWall = std::chrono::duration<double>(runEnd - runStart).count();

    const sim::Engine &engine = plat->engine();
    const char *statusName =
        status == gpu::Platform::RunStatus::Completed ? "completed"
        : status == gpu::Platform::RunStatus::Hung    ? "hung"
                                                      : "stopped";
    out.set("status", statusName);
    out.set("run_wall_s", runWall);
    out.set("events", engine.eventCount());
    out.set("sim_ps", static_cast<std::uint64_t>(engine.now()));

    json::Json counters = readCounters(*plat);
    out.set("wgs_completed", counters.getInt("wgs_completed"));
    out.set("wgs_expected", static_cast<std::uint64_t>(kernel.numWorkGroups));
    out.set("counters", std::move(counters));
    out.set("requests", summarizeRequests(clients));

    auto postStart = Clock::now();
    const std::uint64_t postSpan = trace.reserve();
    if (mon)
        out.set("serving", afterRun(*mon, trace, postSpan, errors));
    trace.span("bench.post", postStart, Clock::now(), 0, postSpan);
    if (traced) {
        json::Json probes = json::Json::object();
        probes.set("withlock_us", numbers(lockUs));
        probes.set("queue_length_us", numbers(queueUs));
        out.set("probes", std::move(probes));
        if (!trace.write(opt.spansPath))
            errors.push_back("could not write " + opt.spansPath);
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    out.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

    json::Json errs = json::Json::array();
    for (const auto &e : errors)
        errs.push(e);
    out.set("errors", std::move(errs));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
}
