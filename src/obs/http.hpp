/**
 * @file
 * Embedded telemetry HTTP server: the live scrape plane over the
 * process-wide registry / trace ring / attribution report, so a fleet
 * rollup can poll each instance instead of waiting for shutdown
 * artifacts (DESIGN.md §14).
 *
 * Plain POSIX sockets, HTTP/1.1, no third-party dependencies: one
 * acceptor thread feeding a bounded connection queue drained by a
 * small handler pool; every response closes the connection. Endpoints:
 *
 *   GET /metrics       Prometheus text (registry snapshot)
 *   GET /metrics.json  JSON exposition of the same snapshot
 *   GET /healthz       200 while the process is alive
 *   GET /readyz        readiness provider verdict (503 when not ready)
 *   GET /trace         Chrome trace JSON from the live span ring
 *   GET /attrib        latest attribution report (404 until one exists)
 *
 * `ZKSPEED_HTTP_PORT` enables the server in `proof_server` (port 0 =
 * ephemeral; the chosen port is exported as the `zkspeed_http_port`
 * gauge, printed on stdout and written to `$ZKSPEED_HTTP_PORT_FILE`
 * for CI).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace zkspeed::obs {

/** /readyz verdict: `detail` is rendered into the response body. */
struct Readiness {
    bool ready = true;
    std::string detail;
};

/**
 * Install the process-wide readiness hook `/readyz` consults
 * (`proof_server` wires it to ProofService::readiness()). With no
 * provider the endpoint reports ready — the server alone has nothing
 * to be unready about. Thread-safe; pass nullptr to clear.
 */
using ReadinessProvider = std::function<Readiness()>;
void set_readiness_provider(ReadinessProvider provider);

/** Store/fetch the latest rendered attribution report for `/attrib`
 * (harness/proof_server set it right after building the report). */
void set_latest_attrib_json(std::string json);
std::string latest_attrib_json();

struct HttpServerConfig {
    /** 0 = ephemeral (read the chosen port back via port()). */
    uint16_t port = 0;
    /** Loopback only by default: this is a telemetry sidecar, not a
     * public listener. */
    std::string bind_addr = "127.0.0.1";
    size_t handler_threads = 2;
    /** Accepted connections parked for a handler; beyond this the
     * acceptor answers 503 immediately (bounded, never unbounded). */
    size_t max_pending = 16;
    size_t max_request_bytes = 8192;
};

class HttpServer
{
  public:
    /** Bind + listen + spawn threads; nullptr on bind/listen failure. */
    static std::unique_ptr<HttpServer> start(
        const HttpServerConfig &cfg = HttpServerConfig());

    /** Honor ZKSPEED_HTTP_PORT (unset/empty = nullptr, no server;
     * "0" = ephemeral port). */
    static std::unique_ptr<HttpServer> start_from_env();

    ~HttpServer();
    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** The bound port (the chosen one when config asked for 0). */
    uint16_t port() const { return port_; }

    /** Join the acceptor + handlers and close every socket. Idempotent;
     * the destructor calls it. */
    void stop();

  private:
    HttpServer() = default;
    struct Impl;
    std::unique_ptr<Impl> impl_;
    uint16_t port_ = 0;
};

}  // namespace zkspeed::obs
