/**
 * @file
 * The pipesimd side of the benchmark: a daemon child process owned by
 * the harness, and an open-loop client that sends newline-delimited
 * JSON requests on a fixed schedule over a few connections.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <string>
#include <sys/types.h>
#include <vector>

#include "common/json.hh"
#include "util.hh"

namespace perfbench
{

/**
 * A pipesimd process with its socket and log under @p dir and its
 * result cache in @p cache_dir. The destructor stops it (SIGTERM, then
 * waits).
 */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &binary, const std::string &dir,
                  const std::string &cache_dir, unsigned threads,
                  bool access_log);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Accepting connections (false when it failed to start). */
    bool ready() const { return ready_; }
    const std::string &socketPath() const { return socket_; }
    pid_t pid() const { return pid_; }

    /** SIGTERM and wait; @return true on a clean (exit 0) drain. */
    bool stop();

  private:
    pid_t pid_ = -1;
    bool ready_ = false;
    std::string socket_;
};

/** Connect to a Unix stream socket; -1 on failure. */
int connectUnix(const std::string &path);

/** One request of a schedule. */
struct Scheduled
{
    double at_ms = 0.0;    //!< send time, from the schedule's start
    std::size_t conn = 0;  //!< index into the connection list
    std::string id;        //!< "" when the reply cannot carry an id
    std::string line;      //!< the request, without its newline
};

/** Everything the daemon answered to one request. */
struct Response
{
    bool answered = false;
    double sent_ms = 0.0; //!< when the send actually happened
    double done_ms = 0.0; //!< when the terminal line arrived
    std::vector<pipedepth::JsonValue> lines; //!< in arrival order
};

/**
 * Open loop: send each request at its scheduled time, whatever the
 * replies are doing, and collect replies until every request is
 * answered or @p drain_ms after the last send. Times are offsets from
 * @p start.
 */
std::vector<Response> driveOpenLoop(const std::vector<Scheduled> &schedule,
                                    const std::vector<int> &fds,
                                    Clock::time_point start, double drain_ms);

/** A counter's value in a `stats` reply's metrics snapshot (0 if absent). */
double statsCounter(const pipedepth::JsonValue &stats, const std::string &name);

/** Send one `stats` request on its own connection and return the reply. */
bool queryStats(const std::string &socket, pipedepth::JsonValue *out);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
