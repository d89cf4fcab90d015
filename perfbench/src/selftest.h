// Self-tests of the benchmark's own code, run before every measurement:
// generator determinism and validity, the percentile helper, self time
// over nested and overlapping spans, and the closed-loop client's failure
// accounting against a scripted fake daemon.
#pragma once

#include <string>

namespace perfbench {

/// "" when every self-test passes, else the first failure.  `self_exe` is
/// this binary, re-run as the fake daemon.
std::string run_selftests(const std::string& self_exe);

/// The fake daemon: answers request k according to script[k] — 'o' a
/// normal accepted/job/done exchange, 'e' an error event, 'x' exit without
/// a reply.
int fake_daemon(const std::string& script);

}  // namespace perfbench
