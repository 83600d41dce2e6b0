#include "obs/http.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zkspeed::obs {

namespace {

/** Bound on each blocking read poll and each send on an accepted
 * socket: a client that stops reading (or never sends its request)
 * releases its handler thread after this long. */
constexpr int kIoTimeoutMs = 2000;

std::mutex g_hook_mu;
ReadinessProvider g_readiness;
std::string g_attrib_json;

/** Endpoint request counters + the port gauge (process-wide; every
 * server instance shares them — tests run servers back to back). */
struct HttpTelemetry {
    MetricId requests[7];
    MetricId dropped;
    MetricId port;
};

const char *const kEndpoints[7] = {"/metrics",  "/metrics.json",
                                   "/healthz",  "/readyz",
                                   "/trace",    "/attrib",
                                   "other"};

HttpTelemetry &
http_telemetry()
{
    static HttpTelemetry t = [] {
        HttpTelemetry h;
        auto &reg = MetricsRegistry::global();
        for (int i = 0; i < 7; ++i) {
            h.requests[i] = reg.counter(
                "zkspeed_http_requests_total",
                {{"endpoint", kEndpoints[i]}},
                "Telemetry HTTP requests served, by endpoint "
                "(\"other\" covers 404s and bad requests)");
        }
        h.dropped = reg.counter(
            "zkspeed_http_connections_dropped_total", {},
            "Connections answered 503 because the bounded handler "
            "queue was full");
        h.port = reg.gauge(
            "zkspeed_http_port", {},
            "Bound telemetry HTTP port (0 = server not running)");
        return h;
    }();
    return t;
}

int
endpoint_index(const std::string &path)
{
    for (int i = 0; i < 6; ++i) {
        if (path == kEndpoints[i]) return i;
    }
    return 6;
}

struct Response {
    int code = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
};

const char *
reason_phrase(int code)
{
    switch (code) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 503: return "Service Unavailable";
    }
    return "OK";
}

void
send_all(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = send(fd, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
        if (n <= 0) return;
        off += size_t(n);
    }
}

void
send_response(int fd, const Response &resp)
{
    std::string head = "HTTP/1.1 " + std::to_string(resp.code) + " " +
                       reason_phrase(resp.code) + "\r\n";
    head += "Content-Type: " + resp.content_type + "\r\n";
    head += "Content-Length: " + std::to_string(resp.body.size()) +
            "\r\n";
    head += "Connection: close\r\n\r\n";
    send_all(fd, head + resp.body);
}

Response
dispatch(const std::string &method, const std::string &path)
{
    Response resp;
    if (method != "GET") {
        resp.code = 405;
        resp.body = "only GET is supported\n";
        return resp;
    }
    if (path == "/metrics") {
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp.body =
            render_prometheus_text(MetricsRegistry::global().snapshot());
    } else if (path == "/metrics.json") {
        resp.content_type = "application/json";
        resp.body = render_json(MetricsRegistry::global().snapshot());
    } else if (path == "/healthz") {
        resp.body = "ok\n";
    } else if (path == "/readyz") {
        ReadinessProvider provider;
        {
            std::lock_guard<std::mutex> lock(g_hook_mu);
            provider = g_readiness;
        }
        Readiness r;
        if (provider) r = provider();
        resp.code = r.ready ? 200 : 503;
        resp.body = (r.ready ? "ready" : "not ready");
        if (!r.detail.empty()) resp.body += ": " + r.detail;
        resp.body += "\n";
    } else if (path == "/trace") {
        resp.content_type = "application/json";
        resp.body = TraceRecorder::global().render_chrome_json();
    } else if (path == "/attrib") {
        std::string attrib = latest_attrib_json();
        if (attrib.empty()) {
            resp.code = 404;
            resp.body = "no attribution report built yet\n";
        } else {
            resp.content_type = "application/json";
            resp.body = std::move(attrib);
        }
    } else {
        resp.code = 404;
        resp.body = "unknown endpoint (try /metrics, /metrics.json, "
                    "/healthz, /readyz, /trace, /attrib)\n";
    }
    return resp;
}

}  // namespace

void
set_readiness_provider(ReadinessProvider provider)
{
    std::lock_guard<std::mutex> lock(g_hook_mu);
    g_readiness = std::move(provider);
}

void
set_latest_attrib_json(std::string json)
{
    std::lock_guard<std::mutex> lock(g_hook_mu);
    g_attrib_json = std::move(json);
}

std::string
latest_attrib_json()
{
    std::lock_guard<std::mutex> lock(g_hook_mu);
    return g_attrib_json;
}

struct HttpServer::Impl {
    HttpServerConfig cfg;
    int listen_fd = -1;
    std::atomic<bool> stopping{false};

    std::mutex mu;
    std::condition_variable cv;
    std::deque<int> pending;

    std::thread acceptor;
    std::vector<std::thread> handlers;

    void
    accept_loop()
    {
        for (;;) {
            int fd = accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping.load(std::memory_order_acquire)) return;
                continue;
            }
            timeval send_timeout = {kIoTimeoutMs / 1000,
                                    (kIoTimeoutMs % 1000) * 1000};
            setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                       sizeof(send_timeout));
            bool queued = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (pending.size() < cfg.max_pending) {
                    pending.push_back(fd);
                    queued = true;
                }
            }
            if (queued) {
                cv.notify_one();
            } else {
                Response busy;
                busy.code = 503;
                busy.body = "handler queue full\n";
                send_response(fd, busy);
                close(fd);
                MetricsRegistry::global().add(http_telemetry().dropped);
            }
        }
    }

    /** Read until the blank line ending the request head (we never
     * accept bodies), bounded in bytes and wall time. */
    bool
    read_request_head(int fd, std::string &head)
    {
        char buf[2048];
        while (head.size() < cfg.max_request_bytes) {
            struct pollfd pfd = {fd, POLLIN, 0};
            int pr = poll(&pfd, 1, kIoTimeoutMs);
            if (pr <= 0) return false;
            ssize_t n = recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) return false;
            head.append(buf, size_t(n));
            if (head.find("\r\n\r\n") != std::string::npos ||
                head.find("\n\n") != std::string::npos) {
                return true;
            }
        }
        return false;
    }

    void
    handle_loop()
    {
        for (;;) {
            int fd = -1;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [this] {
                    return stopping.load(std::memory_order_acquire) ||
                           !pending.empty();
                });
                if (pending.empty()) return;  // stopping
                fd = pending.front();
                pending.pop_front();
            }
            handle_one(fd);
            close(fd);
        }
    }

    void
    handle_one(int fd)
    {
        std::string head;
        if (!read_request_head(fd, head)) {
            Response bad;
            bad.code = 400;
            bad.body = "malformed or oversized request\n";
            send_response(fd, bad);
            return;
        }
        // Request line: METHOD SP PATH SP VERSION.
        size_t eol = head.find_first_of("\r\n");
        std::string line = head.substr(0, eol);
        size_t sp1 = line.find(' ');
        size_t sp2 = sp1 == std::string::npos
                         ? std::string::npos
                         : line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
            Response bad;
            bad.code = 400;
            bad.body = "malformed request line\n";
            send_response(fd, bad);
            return;
        }
        std::string method = line.substr(0, sp1);
        std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
        size_t query = path.find('?');
        if (query != std::string::npos) path.resize(query);
        MetricsRegistry::global().add(
            http_telemetry().requests[endpoint_index(path)]);
        send_response(fd, dispatch(method, path));
        // Scrapes are another normal-context chance to keep the crash
        // snapshot fresh (debounced; no-op until flight::install()).
        flight::maybe_refresh();
    }
};

std::unique_ptr<HttpServer>
HttpServer::start(const HttpServerConfig &cfg)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (inet_pton(AF_INET, cfg.bind_addr.c_str(), &addr.sin_addr) != 1) {
        close(fd);
        return nullptr;
    }
    if (bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        listen(fd, 16) != 0) {
        close(fd);
        return nullptr;
    }
    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) !=
        0) {
        close(fd);
        return nullptr;
    }

    auto server = std::unique_ptr<HttpServer>(new HttpServer());
    server->impl_ = std::make_unique<Impl>();
    server->impl_->cfg = cfg;
    server->impl_->cfg.handler_threads =
        std::max<size_t>(1, cfg.handler_threads);
    server->impl_->listen_fd = fd;
    server->port_ = ntohs(bound.sin_port);

    MetricsRegistry::global().set(http_telemetry().port,
                                  double(server->port_));

    Impl *impl = server->impl_.get();
    impl->acceptor = std::thread([impl] { impl->accept_loop(); });
    for (size_t i = 0; i < impl->cfg.handler_threads; ++i) {
        impl->handlers.emplace_back([impl] { impl->handle_loop(); });
    }
    log_event(LogLevel::info, "http",
              "telemetry server listening on " + cfg.bind_addr + ":" +
                  std::to_string(server->port_));
    return server;
}

std::unique_ptr<HttpServer>
HttpServer::start_from_env()
{
    const char *v = std::getenv("ZKSPEED_HTTP_PORT");
    if (v == nullptr || *v == '\0') return nullptr;
    char *end = nullptr;
    long port = std::strtol(v, &end, 10);
    if (end == v || port < 0 || port > 65535) return nullptr;
    HttpServerConfig cfg;
    cfg.port = uint16_t(port);
    return start(cfg);
}

void
HttpServer::stop()
{
    if (!impl_) return;
    Impl *impl = impl_.get();
    if (impl->stopping.exchange(true, std::memory_order_acq_rel)) {
        return;
    }
    // Unblock accept() by tearing the listener down.
    shutdown(impl->listen_fd, SHUT_RDWR);
    close(impl->listen_fd);
    impl->cv.notify_all();
    if (impl->acceptor.joinable()) impl->acceptor.join();
    impl->cv.notify_all();
    for (auto &t : impl->handlers) {
        if (t.joinable()) t.join();
    }
    {
        std::lock_guard<std::mutex> lock(impl->mu);
        for (int fd : impl->pending) close(fd);
        impl->pending.clear();
    }
    MetricsRegistry::global().set(http_telemetry().port, 0.0);
}

HttpServer::~HttpServer() { stop(); }

}  // namespace zkspeed::obs
