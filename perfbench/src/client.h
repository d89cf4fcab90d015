// Child processes and the closed-loop xplaind client.
//
// The benchmark drives the built daemon only over its stdin/stdout NDJSON
// protocol: one request line out, then event lines back until "done" (or
// an "error" event, or the daemon's death).  The client is closed-loop: it
// sends the next request only after the previous one ended.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A spawned process with piped stdin/stdout (stderr is inherited).  The
/// destructor kills a process that is still running and reaps it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork/exec of argv[0] with `env` added to the environment.
  bool start(const std::vector<std::string>& argv,
             const std::vector<std::string>& env = {});
  bool write_line(const std::string& line);
  enum class Read { kLine, kEof, kTimeout };
  /// One line without its newline; kTimeout after `timeout_ms`.
  Read read_line(std::string* line, int timeout_ms);
  void close_stdin();
  /// Waits for exit (killing it after `timeout_ms`); returns the wait
  /// status, or -1 when nothing was running.
  int wait(int timeout_ms);
  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;   // our end of the child's stdin
  int out_fd_ = -1;  // our end of the child's stdout
  std::string buf_;
};

/// One request/response exchange as the client saw it.  Times are
/// now_ns() stamps taken as each line was written or read.
struct Exchange {
  bool done = false;         // a "done" event arrived
  bool daemon_lost = false;  // write failed, output closed or timed out
  std::string error;         // error event text, or why no done arrived
  std::int64_t sent = 0;
  std::int64_t accepted = 0;  // 0 when no accepted event arrived
  std::int64_t finished = 0;  // done / error / death time
  std::vector<std::int64_t> job_times;
  std::vector<std::string> job_events;  // raw "job" event lines
  std::size_t response_bytes = 0;       // every line read, with newlines

  bool failed() const { return !done || !error.empty(); }
};

/// Writes `line` and reads events until done, error, EOF or timeout.
Exchange exchange(Child& daemon, const std::string& line, int timeout_ms);

/// The "job" object inside a job event line, as the daemon wrote it.
std::string job_object(const std::string& job_event);
/// True for a job event whose "cached" flag is true.
bool job_cached(const std::string& job_event);

/// VmHWM of `pid` in MB from /proc (0 when unreadable).
double peak_rss_mb(pid_t pid);

/// Logical CPUs this process may run on.
int available_cpus();

}  // namespace perfbench
