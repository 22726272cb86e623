#include "daemon.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench
{

using pipedepth::JsonValue;

namespace
{

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

const std::string &
stringField(const JsonValue &v, const char *key)
{
    static const std::string empty;
    const JsonValue *f = v.find(key);
    return f && f->isString() ? f->string : empty;
}

bool
terminalType(const std::string &type)
{
    return type == "done" || type == "error" || type == "stats" ||
           type == "health";
}

} // namespace

int
connectUnix(const std::string &path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

DaemonProcess::DaemonProcess(const std::string &binary, const std::string &dir,
                             const std::string &cache_dir, unsigned threads,
                             bool access_log)
    : socket_(dir + "/pipesimd.sock")
{
    std::vector<std::string> args = {binary,
                                     "--socket",
                                     socket_,
                                     "--threads",
                                     std::to_string(threads),
                                     "--cache-dir",
                                     cache_dir};
    if (access_log) {
        args.push_back("--access-log");
        args.push_back(dir + "/access.jsonl");
    }
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/pipesimd.log";
    // The daemon may use every CPU, whatever the forking thread is
    // pinned to at the moment (see CpuRotation).
    cpu_set_t all;
    CPU_ZERO(&all);
    for (long c = 0; c < ::sysconf(_SC_NPROCESSORS_CONF) && c < CPU_SETSIZE; ++c)
        CPU_SET(static_cast<int>(c), &all);

    pid_ = ::fork();
    if (pid_ == 0) {
        // A harness that dies must not leave its daemon behind.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        ::sched_setaffinity(0, sizeof(all), &all);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    if (pid_ < 0)
        return;
    const auto t0 = Clock::now();
    while (msSince(t0) < 20000.0) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return;
        }
        const int fd = connectUnix(socket_);
        if (fd >= 0) {
            ::close(fd);
            ready_ = true;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

DaemonProcess::~DaemonProcess() { stop(); }

bool
DaemonProcess::stop()
{
    if (pid_ <= 0)
        return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (msSince(t0) > 10000.0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<Response>
driveOpenLoop(const std::vector<Scheduled> &schedule, const std::vector<int> &fds,
              Clock::time_point start, double drain_ms)
{
    std::vector<Response> out(schedule.size());
    std::unordered_map<std::string, std::size_t> by_id;
    // Replies that cannot carry an id (unparseable lines) are answered
    // in order per connection.
    std::vector<std::deque<std::size_t>> anonymous(fds.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (schedule[i].id.empty())
            anonymous[schedule[i].conn].push_back(i);
        else
            by_id.emplace(schedule[i].id, i);
    }

    std::vector<double> sent(schedule.size(), 0.0);
    std::atomic<bool> all_sent{false};
    std::thread sender([&] {
        // Latency is timed from the scheduled send, so a late wake-up
        // would be charged to the daemon: sleep to just short of each
        // send time with minimal timer slack, then spin the rest.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double, std::milli>(
                                             schedule[i].at_ms));
            std::this_thread::sleep_until(due - std::chrono::microseconds(200));
            while (Clock::now() < due) {
            }
            sent[i] = msSince(start);
            writeAll(fds[schedule[i].conn], schedule[i].line + "\n");
        }
        all_sent.store(true);
    });

    std::vector<std::string> buffers(fds.size());
    std::vector<pollfd> pfds(fds.size());
    std::size_t answered = 0;
    double last_send_ms = schedule.empty() ? 0.0 : schedule.back().at_ms;
    while (answered < schedule.size()) {
        if (all_sent.load() && msSince(start) > last_send_ms + drain_ms)
            break;
        for (std::size_t c = 0; c < fds.size(); ++c)
            pfds[c] = pollfd{fds[c], POLLIN, 0};
        if (::poll(pfds.data(), pfds.size(), 20) <= 0)
            continue;
        for (std::size_t c = 0; c < fds.size(); ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            const ssize_t n = ::read(fds[c], buf, sizeof(buf));
            const double now = msSince(start);
            if (n <= 0)
                continue;
            buffers[c].append(buf, static_cast<std::size_t>(n));
            std::size_t nl = 0;
            while ((nl = buffers[c].find('\n')) != std::string::npos) {
                JsonValue v;
                const bool ok = JsonValue::parse(buffers[c].substr(0, nl), &v);
                buffers[c].erase(0, nl + 1);
                if (!ok)
                    continue;
                std::size_t idx = schedule.size();
                const std::string &id = stringField(v, "id");
                if (!id.empty()) {
                    const auto it = by_id.find(id);
                    if (it != by_id.end())
                        idx = it->second;
                } else if (!anonymous[c].empty()) {
                    idx = anonymous[c].front();
                    anonymous[c].pop_front();
                }
                if (idx == schedule.size() || out[idx].answered)
                    continue;
                const bool terminal = terminalType(stringField(v, "type"));
                out[idx].lines.push_back(std::move(v));
                if (terminal) {
                    out[idx].answered = true;
                    out[idx].done_ms = now;
                    ++answered;
                }
            }
        }
    }
    sender.join();
    for (std::size_t i = 0; i < schedule.size(); ++i)
        out[i].sent_ms = sent[i];
    return out;
}

double
statsCounter(const JsonValue &stats, const std::string &name)
{
    const JsonValue *metrics = stats.find("metrics");
    const JsonValue *m = metrics ? metrics->find(name) : nullptr;
    const JsonValue *v = m ? m->find("value") : nullptr;
    return v && v->isNumber() ? v->number : 0.0;
}

bool
queryStats(const std::string &socket, JsonValue *out)
{
    const int fd = connectUnix(socket);
    if (fd < 0)
        return false;
    const std::vector<Scheduled> one = {
        Scheduled{0.0, 0, "perfbench-stats",
                  "{\"id\": \"perfbench-stats\", \"type\": \"stats\"}"}};
    const auto replies = driveOpenLoop(one, {fd}, Clock::now(), 5000.0);
    ::close(fd);
    if (!replies[0].answered || replies[0].lines.empty())
        return false;
    *out = replies[0].lines.back();
    return stringField(*out, "type") == "stats";
}

} // namespace perfbench
