#ifndef CTRLSHED_NET_SOCKET_UTIL_H_
#define CTRLSHED_NET_SOCKET_UTIL_H_

#include <string>

namespace ctrlshed {

/// Installs SIG_IGN for SIGPIPE once per process (idempotent, thread-safe).
/// Every send() in the tree also passes MSG_NOSIGNAL; this catches any
/// other path (e.g. a stdio write to a dead pipe) so an abruptly
/// disconnected peer can never kill a live run.
void IgnoreSigPipe();

/// True when `ip` is an IPv4 address in 127.0.0.0/8; false for any other
/// address and for a string that does not parse.
bool IsLoopbackAddress(const std::string& ip);

/// Blocking connect to host:port, retrying until `deadline_wall_seconds`
/// of wall time elapse (covers the node-starts-before-controller race in
/// scripts). Returns the connected fd or -1.
int ConnectWithRetry(const std::string& host, int port,
                     double deadline_wall_seconds);

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_SOCKET_UTIL_H_
