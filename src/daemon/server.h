// Unix-domain socket front end of the sdcd daemon (docs/daemon.md).
//
// The server owns only transport: it binds a stream socket at a filesystem path, accepts
// connections, reads newline-terminated request lines (at most kMaxRequestLineBytes
// each), and answers each with the ProtocolReply produced by HandleRequestLine -- status
// line, newline, then the payload verbatim. Each connection gets its own handler thread, so a client blocked in `wait`
// never stalls another client's `submit`; all campaign state lives in the shared
// CampaignManager, which is what makes the concurrency safe.

#ifndef SDC_SRC_DAEMON_SERVER_H_
#define SDC_SRC_DAEMON_SERVER_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/campaign.h"

namespace sdc {

class DaemonServer {
 public:
  // Longest request line a connection may send, newline excluded: far above any legal
  // request (a submit with a full scenario spec is a few hundred bytes), so a line past it
  // is a broken or hostile client. It gets `err proto line too long` and the connection
  // is closed, which keeps each connection's buffer bounded.
  static constexpr size_t kMaxRequestLineBytes = 64 * 1024;

  // `manager` must outlive the server. Nothing touches the filesystem until Start.
  DaemonServer(CampaignManager* manager, std::string socket_path);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  // Binds and listens at the socket path (unlinking any stale socket first). Returns
  // false and fills `error` on failure -- including a path too long for sockaddr_un.
  bool Start(std::string& error);

  // Accept loop: serves until Stop is called or a shutdown verb arrives. Blocks; run it
  // on the main thread. Joins every connection handler before returning.
  void Serve();

  // Asks Serve to return: closes the listening socket, which unblocks accept. Safe from
  // any thread and from connection handlers (the shutdown verb calls it).
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  void HandleConnection(int fd);

  CampaignManager* manager_;
  std::string socket_path_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace sdc

#endif  // SDC_SRC_DAEMON_SERVER_H_
