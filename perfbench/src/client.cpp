#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "trace.h"

extern char** environ;

namespace perfbench {

Child::~Child() {
  close_stdin();
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::start(const std::vector<std::string>& argv,
                  const std::vector<std::string>& env) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) return false;
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return false;
  }
  // Build argv/envp before fork: the child only calls async-signal-safe
  // functions.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e; ++e) env_strings.emplace_back(*e);
  for (const std::string& kv : env) {
    const std::string key = kv.substr(0, kv.find('=') + 1);
    for (std::string& s : env_strings)
      if (s.compare(0, key.size(), key) == 0) s.clear();
    env_strings.push_back(kv);
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings)
    if (!s.empty()) envp.push_back(s.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(in[0], 0);
    ::dup2(out[1], 1);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  pid_ = pid;
  in_fd_ = in[1];
  out_fd_ = out[0];
  buf_.clear();
  return true;
}

bool Child::write_line(const std::string& line) {
  if (in_fd_ < 0) return false;
  std::string data = line + "\n";
  const char* p = data.data();
  std::size_t left = data.size();
  // SIGPIPE is ignored by the driver: a dead reader is a failed write.
  while (left > 0) {
    const ssize_t n = ::write(in_fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return left == 0;
}

Child::Read Child::read_line(std::string* line, int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return Read::kLine;
    }
    if (out_fd_ < 0) return Read::kEof;
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) return Read::kTimeout;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) return Read::kTimeout;
    char chunk[65536];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      if (!buf_.empty()) {  // a last line without its newline
        line->swap(buf_);
        buf_.clear();
        return Read::kLine;
      }
      return Read::kEof;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Child::close_stdin() {
  if (in_fd_ >= 0) ::close(in_fd_);
  in_fd_ = -1;
}

int Child::wait(int timeout_ms) {
  if (pid_ <= 0) return -1;
  close_stdin();
  int status = 0;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return status;
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

}  // namespace

Exchange exchange(Child& daemon, const std::string& line, int timeout_ms) {
  Exchange ex;
  ex.sent = now_ns();
  if (!daemon.write_line(line)) {
    ex.finished = now_ns();
    ex.daemon_lost = true;
    ex.error = "write failed: daemon gone";
    return ex;
  }
  std::string ev;
  for (;;) {
    const Child::Read r = daemon.read_line(&ev, timeout_ms);
    const std::int64_t t = now_ns();
    if (r != Child::Read::kLine) {
      ex.finished = t;
      ex.daemon_lost = true;
      ex.error = r == Child::Read::kEof ? "daemon closed its output"
                                        : "no reply before the timeout";
      return ex;
    }
    ex.response_bytes += ev.size() + 1;
    // xplaind writes "event" first in every event object.
    if (starts_with(ev, "{\"event\":\"accepted\"")) {
      ex.accepted = t;
    } else if (starts_with(ev, "{\"event\":\"job\"")) {
      ex.job_times.push_back(t);
      ex.job_events.push_back(std::move(ev));
    } else if (starts_with(ev, "{\"event\":\"done\"")) {
      ex.finished = t;
      ex.done = true;
      return ex;
    } else if (starts_with(ev, "{\"event\":\"error\"")) {
      ex.finished = t;
      ex.error = ev;
      return ex;
    } else {
      ex.finished = t;
      ex.error = "unexpected line: " + ev.substr(0, 200);
      return ex;
    }
  }
}

std::string job_object(const std::string& job_event) {
  // {"event":"job","id":...,"cached":b,"job":{...}} — "job" is the last key.
  const std::string key = ",\"job\":";
  const std::size_t at = job_event.rfind(key);
  if (at == std::string::npos || job_event.size() < at + key.size() + 1)
    return {};
  return job_event.substr(at + key.size(),
                          job_event.size() - at - key.size() - 1);
}

bool job_cached(const std::string& job_event) {
  return job_event.find(",\"cached\":true,") != std::string::npos;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace perfbench
