/**
 * @file
 * Live telemetry plane tests (DESIGN.md §14): the embedded scrape
 * server (/metrics, /metrics.json, /healthz, /readyz, /trace,
 * /attrib), the live-scrape == shutdown-exposition series-set
 * invariant, concurrent scrapes while two provers run, readiness
 * flipping under queue saturation, the obs::set_enabled(false) kill
 * switch covering HTTP + log ring, structured-log ring/rate-limit
 * semantics and JSONL rendering, the escaping and exact 64-bit ids of
 * every JSON writer, the flight recorder's worker-exception path
 * (forced via ZKSPEED_FAULT_INJECT), and handler threads surviving
 * clients that never read their response.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "hyperplonk/serialize.hpp"
#include "json_check.hpp"
#include "loadgen/loadgen.hpp"
#include "obs/build_info.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/jsonv.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/service.hpp"

namespace {

using namespace zkspeed;
using test::check_prometheus_lines;
using test::valid_json;

/** Series identities (`name{labels}`, value stripped) of an
 * exposition — the live-vs-shutdown comparison key. The `le` label is
 * dropped: histogram buckets render sparsely (only populated ones), so
 * observations arriving between the two expositions legitimately add
 * bucket *lines*; the series itself must still be present in both. */
std::set<std::string>
series_identities(const std::string &text)
{
    std::set<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos) continue;
        std::string id = line.substr(0, sp);
        size_t le = id.find("le=\"");
        size_t end = le == std::string::npos ? std::string::npos
                                             : id.find('"', le + 4);
        if (end != std::string::npos) {
            // Swallow a trailing comma (le mid-label-set) or a leading
            // one (le last) so the remainder is well-formed.
            if (end + 1 < id.size() && id[end + 1] == ',') {
                id.erase(le, end + 2 - le);
            } else {
                size_t from = le > 0 && id[le - 1] == ',' ? le - 1 : le;
                id.erase(from, end + 1 - from);
            }
        }
        out.insert(id);
    }
    return out;
}

// ---------------------------------------------------------------------------
// A tiny loopback HTTP client (blocking, Connection: close).
// ---------------------------------------------------------------------------

struct HttpReply {
    bool ok = false;  ///< transport-level success (connect/read)
    int code = 0;
    std::string body;
};

HttpReply
http_request(uint16_t port, const std::string &method,
             const std::string &path)
{
    HttpReply reply;
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return reply;
    // A wedged server fails the calling test instead of hanging it.
    timeval recv_timeout = {30, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        close(fd);
        return reply;
    }
    std::string req = method + " " + path +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
        ssize_t n = send(fd, req.data() + off, req.size() - off, 0);
        if (n <= 0) {
            close(fd);
            return reply;
        }
        off += size_t(n);
    }
    std::string raw;
    char buf[4096];
    for (;;) {
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        raw.append(buf, size_t(n));
    }
    close(fd);
    if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return reply;
    reply.code = std::atoi(raw.c_str() + 9);
    size_t split = raw.find("\r\n\r\n");
    if (split == std::string::npos) return reply;
    reply.body = raw.substr(split + 4);
    reply.ok = true;
    return reply;
}

HttpReply
http_get(uint16_t port, const std::string &path)
{
    return http_request(port, "GET", path);
}

runtime::JobRequest
make_request(uint64_t id, size_t mu, uint64_t circuit_seed)
{
    std::mt19937_64 rng(circuit_seed);
    auto [index, wit] = hyperplonk::random_circuit(mu, rng);
    runtime::JobRequest req;
    req.request_id = id;
    req.circuit = std::move(index);
    req.witness = std::move(wit);
    return req;
}

// ---------------------------------------------------------------------------
// Endpoint coverage + the live == shutdown series-set invariant.
// ---------------------------------------------------------------------------

TEST(ObsHttp, ServesAllEndpointsOnEphemeralPort)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    runtime::ProofService service(cfg);
    EXPECT_TRUE(service.submit(make_request(1, 5, 42)).get().ok());

    auto server = obs::HttpServer::start();
    ASSERT_NE(server, nullptr);
    ASSERT_GT(server->port(), 0);

    auto health = http_get(server->port(), "/healthz");
    ASSERT_TRUE(health.ok);
    EXPECT_EQ(health.code, 200);
    EXPECT_EQ(health.body, "ok\n");

    // No readiness provider registered in this test: default ready.
    obs::set_readiness_provider(nullptr);
    auto ready = http_get(server->port(), "/readyz");
    ASSERT_TRUE(ready.ok);
    EXPECT_EQ(ready.code, 200);

    auto metrics_json = http_get(server->port(), "/metrics.json");
    ASSERT_TRUE(metrics_json.ok);
    EXPECT_EQ(metrics_json.code, 200);
    EXPECT_TRUE(valid_json(metrics_json.body));

    auto trace = http_get(server->port(), "/trace");
    ASSERT_TRUE(trace.ok);
    EXPECT_EQ(trace.code, 200);
    EXPECT_TRUE(valid_json(trace.body));

    EXPECT_EQ(http_get(server->port(), "/nope").code, 404);
    EXPECT_EQ(http_request(server->port(), "POST", "/metrics").code, 405);

    // /attrib is 404 until a report exists, 200 JSON afterwards.
    obs::set_latest_attrib_json("");
    EXPECT_EQ(http_get(server->port(), "/attrib").code, 404);
    obs::set_latest_attrib_json("{\"schema\":\"test\"}");
    auto attrib = http_get(server->port(), "/attrib");
    EXPECT_EQ(attrib.code, 200);
    EXPECT_EQ(attrib.body, "{\"schema\":\"test\"}");
    obs::set_latest_attrib_json("");

    // Query strings are stripped before dispatch.
    EXPECT_EQ(http_get(server->port(), "/healthz?x=1").code, 200);

    // The live scrape and the shutdown exposition must expose the same
    // series set — a scrape must never see a partial registry.
    auto live = http_get(server->port(), "/metrics");
    ASSERT_TRUE(live.ok);
    EXPECT_EQ(live.code, 200);
    check_prometheus_lines(live.body);
    server->stop();
    service.shutdown();
    std::string final_text = obs::render_prometheus_text(
        obs::MetricsRegistry::global().snapshot());
    EXPECT_EQ(series_identities(live.body),
              series_identities(final_text));

    // The request counter covers every endpoint label it saw.
    auto snap = obs::MetricsRegistry::global().snapshot();
    const auto *req_metrics = snap.find("zkspeed_http_requests_total",
                                        {{"endpoint", "/metrics"}});
    ASSERT_NE(req_metrics, nullptr);
    EXPECT_GE(req_metrics->counter, 1u);
    const auto *req_other =
        snap.find("zkspeed_http_requests_total", {{"endpoint", "other"}});
    ASSERT_NE(req_other, nullptr);
    EXPECT_GE(req_other->counter, 1u);
    const auto *port_gauge = snap.find("zkspeed_http_port", {});
    ASSERT_NE(port_gauge, nullptr);
    EXPECT_EQ(port_gauge->gauge, 0.0) << "stop() must clear the gauge";
}

// ---------------------------------------------------------------------------
// Concurrent scrapes while two provers run.
// ---------------------------------------------------------------------------

TEST(ObsHttp, ConcurrentScrapeWhileProving)
{
    auto server = obs::HttpServer::start();
    ASSERT_NE(server, nullptr);

    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    runtime::ProofService svc_a(cfg), svc_b(cfg);

    std::atomic<bool> proving{true};
    std::thread prover_a([&] {
        for (int i = 0; i < 4; ++i) {
            svc_a.submit(make_request(100 + i, 5, 7 + i)).get();
        }
        proving.store(false, std::memory_order_release);
    });
    std::thread prover_b([&] {
        for (int i = 0; i < 4; ++i) {
            svc_b.submit(make_request(200 + i, 5, 19 + i)).get();
        }
    });

    constexpr int kScrapers = 4;
    std::atomic<int> bad_transport{0}, bad_code{0}, bad_body{0};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < kScrapers; ++s) {
        scrapers.emplace_back([&, s] {
            int iter = 0;
            do {
                const char *path = (iter + s) % 2 == 0 ? "/metrics"
                                                       : "/trace";
                auto reply = http_get(server->port(), path);
                if (!reply.ok) {
                    ++bad_transport;
                } else if (reply.code != 200) {
                    ++bad_code;
                } else if (std::strcmp(path, "/trace") == 0
                               ? !valid_json(reply.body)
                               : reply.body.find("# TYPE") ==
                                     std::string::npos) {
                    ++bad_body;
                }
                ++iter;
            } while (iter < 8 ||
                     proving.load(std::memory_order_acquire));
        });
    }
    for (auto &t : scrapers) t.join();
    prover_a.join();
    prover_b.join();
    EXPECT_EQ(bad_transport.load(), 0);
    EXPECT_EQ(bad_code.load(), 0);
    EXPECT_EQ(bad_body.load(), 0);

    // One full strict validation of the final live body.
    auto final_scrape = http_get(server->port(), "/metrics");
    ASSERT_TRUE(final_scrape.ok);
    check_prometheus_lines(final_scrape.body);
}

// ---------------------------------------------------------------------------
// Readiness: saturation flips /readyz, draining flips it back.
// ---------------------------------------------------------------------------

TEST(ObsHttp, ReadyzFlipsUnderQueueSaturation)
{
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    cfg.queue_capacity = 3;
    runtime::ProofService service(cfg);
    obs::set_readiness_provider([&service] {
        auto r = service.readiness();
        return obs::Readiness{r.ready, r.detail};
    });
    auto server = obs::HttpServer::start();
    ASSERT_NE(server, nullptr);

    EXPECT_EQ(http_get(server->port(), "/readyz").code, 200);

    // Park the lone worker on a big proof, then fill the queue.
    std::vector<std::future<runtime::JobResponse>> futures;
    futures.push_back(service.submit(make_request(1, 9, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint64_t id = 2;
    for (;;) {
        auto f = service.try_submit(
            runtime::wire::encode_request(make_request(id, 4, id)));
        if (!f.has_value()) break;
        futures.push_back(std::move(*f));
        ++id;
        ASSERT_LT(id, 64u) << "queue never saturated";
    }
    auto r = service.readiness();
    EXPECT_FALSE(r.ready);
    EXPECT_TRUE(r.workers_up);
    EXPECT_GE(r.queue_depth, r.queue_capacity);
    EXPECT_NE(r.detail.find("queue saturated"), std::string::npos)
        << r.detail;
    auto saturated = http_get(server->port(), "/readyz");
    ASSERT_TRUE(saturated.ok);
    EXPECT_EQ(saturated.code, 503);
    EXPECT_NE(saturated.body.find("not ready"), std::string::npos);

    for (auto &f : futures) EXPECT_TRUE(f.get().ok());
    auto drained = service.readiness();
    EXPECT_TRUE(drained.ready) << drained.detail;
    EXPECT_EQ(http_get(server->port(), "/readyz").code, 200);

    obs::set_readiness_provider(nullptr);
    server->stop();
    // A shut-down service reports not ready (workers gone).
    service.shutdown();
    EXPECT_FALSE(service.readiness().ready);
}

// ---------------------------------------------------------------------------
// Kill switch: HTTP 503 + inert log ring, both reversible.
// ---------------------------------------------------------------------------

TEST(ObsHttp, KillSwitchDisablesServerAndLogRing)
{
    auto server = obs::HttpServer::start();
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(http_get(server->port(), "/metrics").code, 200);

    auto &rec = obs::LogRecorder::global();
    size_t before = rec.size();

    obs::set_enabled(false);
    auto disabled = http_get(server->port(), "/metrics");
    ASSERT_TRUE(disabled.ok);
    EXPECT_EQ(disabled.code, 503);
    EXPECT_NE(disabled.body.find("disabled"), std::string::npos);
    EXPECT_EQ(http_get(server->port(), "/healthz").code, 503)
        << "the kill switch covers every endpoint";

    obs::log_event(obs::LogLevel::info, "t26", "ghost event");
    obs::logf(obs::LogLevel::debug, "t26", 0, "ghost %d", 1);
    EXPECT_EQ(rec.size(), before) << "disabled ring must not record";

    obs::set_enabled(true);
    EXPECT_EQ(http_get(server->port(), "/metrics").code, 200);
    obs::log_event(obs::LogLevel::info, "t26", "revived event");
    EXPECT_EQ(rec.size(), before + 1);
}

// ---------------------------------------------------------------------------
// Clients that request /trace and never read cannot pin the handlers.
// ---------------------------------------------------------------------------

TEST(ObsHttp, StuckTraceClientsReleaseHandlerThreads)
{
    // Fill the span ring with long names so /trace renders to several
    // MB, far more than the socket buffers of a client that never reads.
    auto &ring = obs::TraceRecorder::global();
    const std::string long_name(256, 's');
    auto t = std::chrono::steady_clock::now();
    for (size_t i = 0; i < obs::TraceRecorder::env_capacity(); ++i) {
        obs::Span::record_complete(long_name, "test", t, t);
    }
    ASSERT_GT(ring.render_chrome_json().size(), size_t(4) << 20);

    obs::HttpServerConfig cfg;
    cfg.handler_threads = 2;
    auto server = obs::HttpServer::start(cfg);
    ASSERT_NE(server, nullptr);
    auto trace_requests = [] {
        auto snap = obs::MetricsRegistry::global().snapshot();
        const auto *m = snap.find("zkspeed_http_requests_total",
                                  {{"endpoint", "/trace"}});
        return m != nullptr ? m->counter : uint64_t(0);
    };
    uint64_t trace_before = trace_requests();

    // One stuck client per handler thread, each with a tiny receive
    // buffer (the kernel rounds it up to its minimum). Declared after
    // the server, so the sockets close before the server stops.
    struct Sockets {
        std::vector<int> fds;
        Sockets() = default;
        Sockets(const Sockets &) = delete;
        Sockets &operator=(const Sockets &) = delete;
        ~Sockets()
        {
            for (int fd : fds) close(fd);
        }
    } stuck;
    for (size_t i = 0; i < cfg.handler_threads; ++i) {
        int fd = socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        stuck.fds.push_back(fd);
        int tiny = 1;
        setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server->port());
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)),
                  0);
        const std::string req = "GET /trace HTTP/1.1\r\n\r\n";
        ASSERT_EQ(send(fd, req.data(), req.size(), 0),
                  ssize_t(req.size()));
    }
    // Every handler has picked up a stuck client before /healthz goes in.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (trace_requests() < trace_before + cfg.handler_threads &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(trace_requests(), trace_before + cfg.handler_threads);

    auto t0 = std::chrono::steady_clock::now();
    auto health = http_get(server->port(), "/healthz");
    double waited_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ring.clear();  // later tests expect a ring of ordinary spans
    EXPECT_TRUE(health.ok) << "/healthz got no answer";
    EXPECT_EQ(health.code, 200);
    // Each stuck handler is freed after a few 2 s send timeouts: while
    // the kernel grows the send buffer, the first sends still return a
    // partial count (about 6 s in all on Linux 6.x loopback).
    EXPECT_LT(waited_s, 12.0) << "stuck clients held the handlers too long";
}

// ---------------------------------------------------------------------------
// Structured log ring: bound, rate limit, JSONL rendering.
// ---------------------------------------------------------------------------

TEST(ObsLog, RingBoundAndArrivalOrder)
{
    obs::LogRecorder rec(4);
    rec.set_rate_limit(0, 0);  // unlimited
    for (int i = 0; i < 6; ++i) {
        rec.record(obs::LogLevel::info, "t26",
                   "event " + std::to_string(i), uint64_t(i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 2u);
    auto events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].message, "event " + std::to_string(i + 2));
        EXPECT_EQ(events[i].correlation_id, i + 2);
        EXPECT_GT(events[i].tid, 0u);
    }
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsLog, RateLimitBoundsSustainedVolume)
{
    obs::LogRecorder rec(256);
    rec.set_rate_limit(1.0, 2.0);  // 1/s sustained, burst of 2
    for (int i = 0; i < 20; ++i) {
        rec.record(obs::LogLevel::info, "t26", "spam");
    }
    // The burst admits ~2 (plus at most a token of refill slack).
    EXPECT_LE(rec.size(), 3u);
    EXPECT_GE(rec.rate_limited(), 17u);
    // Other levels have their own bucket: an error still gets through.
    rec.record(obs::LogLevel::error, "t26", "the one that matters");
    bool found = false;
    for (const auto &e : rec.events()) {
        if (e.level == obs::LogLevel::error) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ObsLog, JsonlRenderingEscapesAndParses)
{
    obs::LogRecorder rec(8);
    rec.set_rate_limit(0, 0);
    const std::string message =
        std::string("quote \" backslash \\ newline \n tab \t ctrl ") +
        '\x01' + " done";
    rec.record(obs::LogLevel::warn, "t26", message, 77);
    rec.record(obs::LogLevel::error, "t26", "plain");
    std::string jsonl = rec.render_jsonl();
    size_t lines = 0, pos = 0;
    while (pos < jsonl.size()) {
        size_t eol = jsonl.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        std::string line = jsonl.substr(pos, eol - pos);
        EXPECT_TRUE(valid_json(line)) << line;
        EXPECT_NE(line.find("\"component\":\"t26\""), std::string::npos);
        pos = eol + 1;
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
    auto parsed = obs::jsonv::parse(jsonl.substr(0, jsonl.find('\n')));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("message")->str, message);
    EXPECT_EQ(parsed->find("correlation_id")->as_u64(), 77u);
    EXPECT_EQ(parsed->find("level")->str, "warn");
}

// ---------------------------------------------------------------------------
// One encoder behind every writer: the same escaping everywhere, and raw
// 64-bit request ids kept exact.
// ---------------------------------------------------------------------------

/** Both oracles accept `json`; @return jsonv's parse of it. */
obs::jsonv::Value
parse_checked(const std::string &json)
{
    EXPECT_TRUE(valid_json(json)) << json.substr(0, 400);
    auto doc = obs::jsonv::parse(json);
    EXPECT_TRUE(doc.has_value()) << json.substr(0, 400);
    return doc.value_or(obs::jsonv::Value::null());
}

/** Field `key` of object `v`; fails the test when it is missing. */
const obs::jsonv::Value &
field(const obs::jsonv::Value &v, const char *key)
{
    static const obs::jsonv::Value missing;
    const obs::jsonv::Value *f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    return f != nullptr ? *f : missing;
}

/** The first element of array `v`; fails the test when it is empty. */
const obs::jsonv::Value &
first(const obs::jsonv::Value &v)
{
    static const obs::jsonv::Value missing;
    EXPECT_FALSE(v.items.empty());
    return v.items.empty() ? missing : v.items.front();
}

TEST(ObsJson, EveryWriterEscapesAndRoundTrips)
{
    // A quote, a backslash, a newline and byte 0x01 each need their own
    // escape.
    const std::string nasty = std::string("q\"b\\s\nn") + '\x01' + "end";

    // A metric label value, through /metrics.json (and /metrics).
    obs::MetricsRegistry reg;
    reg.add(reg.counter("t14_escape_total", {{"tag", nasty}}), 3);
    auto metrics = parse_checked(obs::render_json(reg.snapshot()));
    const auto &series = first(field(metrics, "metrics"));
    EXPECT_EQ(field(field(series, "labels"), "tag").str, nasty);
    EXPECT_EQ(field(series, "value").as_u64(), 3u);
    check_prometheus_lines(obs::render_prometheus_text(reg.snapshot()));

    // A span name and a span arg key, through /trace.
    obs::TraceRecorder rec(4);
    obs::SpanEvent ev;
    ev.name = nasty;
    ev.category = "test";
    ev.args = {{nasty, 1.5}};
    rec.record(ev);
    auto trace = parse_checked(rec.render_chrome_json());
    const auto &span = first(field(trace, "traceEvents"));
    EXPECT_EQ(field(span, "name").str, nasty);
    EXPECT_EQ(field(field(span, "args"), nasty.c_str()).as_double(), 1.5);

    // A loadgen objective name, through SLO_report.json.
    loadgen::Report rep;
    obs::SloObjective objective;
    objective.name = nasty;
    objective.series = {"t14_latency_ms", {}};
    rep.plan.objectives.push_back(objective);
    loadgen::WindowReport window;
    obs::SloVerdict verdict;
    verdict.objective = nasty;
    window.verdicts.push_back(verdict);
    rep.windows.push_back(window);
    auto slo = parse_checked(rep.to_json().render(-1));
    EXPECT_EQ(field(first(field(slo, "objectives")), "name").str, nasty);
    const auto &window_json = first(field(slo, "window_series"));
    EXPECT_EQ(field(first(field(window_json, "verdicts")), "objective").str,
              nasty);
}

TEST(ObsJson, MaxRequestIdSurvivesSpanLogAndFlight)
{
    // Request ids are raw caller-chosen u64s.
    constexpr uint64_t kMaxId = ~uint64_t(0);
    EXPECT_EQ(obs::jsonv::Value::of(kMaxId).render(-1),
              "18446744073709551615");
    EXPECT_EQ(obs::jsonv::Value::of(uint64_t(1) << 63).render(-1),
              "9223372036854775808");

    auto &log = obs::LogRecorder::global();
    log.set_rate_limit(0, 0);  // the event under test is never dropped
    std::string flight;
    {
        obs::Span span("t14.max_id", "test", kMaxId);
        obs::log_event(obs::LogLevel::info, "t14", "max id", kMaxId);
        flight = obs::flight::snapshot_json("snapshot", "", 9999, 64, 32);
    }
    auto has_max_id = [&](const obs::jsonv::Value &items, const char *key,
                          const char *value, const char *id_key) {
        for (const auto &item : items.items) {
            const auto *k = item.find(key);
            const auto *id = item.find(id_key);
            if (k != nullptr && k->str == value && id != nullptr &&
                id->is_integer() && id->as_u64() == kMaxId) {
                return true;
            }
        }
        return false;
    };

    // The flight snapshot: the still-open span and the log event.
    auto doc = parse_checked(flight);
    EXPECT_TRUE(has_max_id(field(field(doc, "trace"), "open"), "name",
                           "t14.max_id", "correlation_id"));
    EXPECT_TRUE(has_max_id(field(field(doc, "log"), "events"), "message",
                           "max id", "correlation_id"));

    // /trace: the closed span's `job` arg.
    auto trace =
        parse_checked(obs::TraceRecorder::global().render_chrome_json());
    bool span_found = false;
    for (const auto &ev : field(trace, "traceEvents").items) {
        const auto *name = ev.find("name");
        if (name == nullptr || name->str != "t14.max_id") continue;
        const auto &job = field(field(ev, "args"), "job");
        if (job.is_integer() && job.as_u64() == kMaxId) span_found = true;
    }
    EXPECT_TRUE(span_found);

    // The JSON-lines log.
    obs::jsonv::Value lines = obs::jsonv::Value::array();
    std::istringstream jsonl(log.render_jsonl());
    for (std::string line; std::getline(jsonl, line);) {
        lines.push(parse_checked(line));
    }
    EXPECT_TRUE(has_max_id(lines, "message", "max id", "correlation_id"));
}

// ---------------------------------------------------------------------------
// Flight recorder: the worker-exception path produces a schema-valid
// report (the signal path is exercised by the CI kill job).
// ---------------------------------------------------------------------------

TEST(ObsFlight, WorkerExceptionWritesSchemaValidReport)
{
    const char *path = "FLIGHT_test_worker_ex.json";
    std::remove(path);
    obs::flight::Options fopts;
    fopts.path = path;
    fopts.install_signal_handlers = false;  // don't fight gtest
    ASSERT_TRUE(obs::flight::install(fopts));
    ASSERT_TRUE(obs::flight::installed());

    setenv("ZKSPEED_FAULT_INJECT", "prove", 1);
    runtime::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.total_parallelism = 1;
    runtime::ProofService service(cfg);
    auto resp = service.submit(make_request(31, 5, 3)).get();
    unsetenv("ZKSPEED_FAULT_INJECT");
    EXPECT_EQ(resp.status, runtime::JobStatus::internal_error);
    EXPECT_NE(resp.error.find("fault injection"), std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(valid_json(text)) << text;
    auto doc = obs::jsonv::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->str, "zkspeed-flight-v1");
    EXPECT_EQ(doc->find("reason")->str, "worker_exception");
    EXPECT_NE(doc->find("detail")->str.find("fault injection"),
              std::string::npos);
    EXPECT_TRUE(doc->find("signal")->is_number());
    const auto *build = doc->find("build");
    ASSERT_NE(build, nullptr);
    ASSERT_TRUE(build->is_object());
    EXPECT_FALSE(build->find("git")->str.empty());
    EXPECT_FALSE(build->find("compiler")->str.empty());
    const auto *log = doc->find("log");
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->find("events")->is_array());
    // The catch site logged the exception before snapshotting, so the
    // tail of the ring carries it.
    bool logged = false;
    for (const auto &ev : log->find("events")->items) {
        if (ev.find("message")->str.find("fault injection") !=
            std::string::npos) {
            logged = true;
        }
    }
    EXPECT_TRUE(logged);
    const auto *metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->find("series")->as_u64(), 0u);
    service.shutdown();
}

TEST(ObsFlight, SnapshotJsonIsValidAndBounded)
{
    std::string snap = obs::flight::snapshot_json("snapshot", "", 9999,
                                                  64, 32);
    EXPECT_TRUE(valid_json(snap)) << snap.substr(0, 400);
    EXPECT_NE(snap.find("\"signal\": 9999"), std::string::npos)
        << "the patchable placeholder must render verbatim";
    EXPECT_LT(snap.size(), 256u * 1024u);
}

// ---------------------------------------------------------------------------
// Build identity: every envelope embeds the same payload.
// ---------------------------------------------------------------------------

TEST(ObsBuildInfo, EnvelopeMatchesGaugeAndParses)
{
    const obs::BuildInfo &b = obs::build_info();
    EXPECT_FALSE(b.git.empty());
    EXPECT_FALSE(b.compiler.empty());
    EXPECT_FALSE(b.flags.empty());
    EXPECT_EQ(b.format, "v3");
    EXPECT_NE(b.features.find("http"), std::string::npos);
    EXPECT_NE(b.features.find("log"), std::string::npos);
    EXPECT_NE(b.features.find("flight"), std::string::npos);
    EXPECT_NE(b.features.find(",srs=simulated,"), std::string::npos);

    std::string compact = obs::build_info_json().render(-1);
    EXPECT_TRUE(valid_json(compact)) << compact;
    auto doc = obs::jsonv::parse(compact);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("git")->str, b.git);
    EXPECT_EQ(doc->find("compiler")->str, b.compiler);
    EXPECT_EQ(doc->find("flags")->str, b.flags);
    EXPECT_EQ(doc->find("format")->str, b.format);
    EXPECT_EQ(doc->find("features")->str, b.features);

    // The info gauge carries the same identity as labels.
    auto snap = obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *info = nullptr;
    for (const auto &m : snap.metrics) {
        if (m.name == "zkspeed_build_info") info = &m;
    }
    ASSERT_NE(info, nullptr);
    auto label = [&](const char *key) -> std::string {
        for (const auto &[k, v] : info->labels) {
            if (k == key) return v;
        }
        return "";
    };
    EXPECT_EQ(label("git"), b.git);
    EXPECT_EQ(label("compiler"), b.compiler);
    EXPECT_EQ(label("format"), b.format);
}

}  // namespace
