#include "net/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <thread>

namespace ctrlshed {

void IgnoreSigPipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPIPE, &sa, nullptr);
  });
}

bool IsLoopbackAddress(const std::string& ip) {
  in_addr addr{};
  return inet_pton(AF_INET, ip.c_str(), &addr) == 1 &&
         (ntohl(addr.s_addr) >> 24) == 127;
}

int ConnectWithRetry(const std::string& host, int port,
                     double deadline_wall_seconds) {
  IgnoreSigPipe();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadline_wall_seconds));
  while (true) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace ctrlshed
