// xplaind — the resident explanation service behind a stdin/stdout
// newline-delimited-JSON protocol (server/protocol.h documents the
// requests and events; tools/xplain_client.py is the matching client).
//
// Flags: --cache-path FILE persists the result cache across restarts
// (journal replayed at startup, compacted on shutdown); --cache-max-bytes N
// bounds resident cache memory (LRU eviction; 0 = unbounded).
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "server/protocol.h"
#include "server/service.h"

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  xplain::server::ServiceOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "xplaind: " << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cache-path") {
      opts.cache_path = value("--cache-path");
    } else if (arg == "--cache-max-bytes") {
      errno = 0;
      char* end = nullptr;
      const char* v = value("--cache-max-bytes");
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (errno != 0 || end == v || *end != '\0') {
        std::cerr << "xplaind: --cache-max-bytes wants a byte count, got \""
                  << v << "\"\n";
        return 2;
      }
      opts.cache_max_bytes = static_cast<std::size_t>(n);
    } else {
      std::cerr << "xplaind: unknown flag \"" << arg
                << "\" (want --cache-path FILE | --cache-max-bytes N)\n";
      return 2;
    }
  }
  xplain::server::Service service(opts);
  xplain::server::serve(service, std::cin, std::cout);
  service.shutdown();
  return 0;
}
