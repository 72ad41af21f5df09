#include "loadgen.h"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <deque>

namespace perfbench {

namespace {

struct Pending {
  int kind;
  int64_t due_ns;
};

struct Conn {
  int fd = -1;
  std::string rdbuf;
  std::deque<Pending> pending;
};

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads and matches responses for one generator run.
class ResponseReader {
 public:
  ResponseReader(OpenLoopResult* result, const ResponseCheck& check)
      : result_(result), check_(check) {}

  /// Drains `conn`'s socket and matches every complete response frame
  /// against its pending request.  Returns how many were matched.
  uint64_t Drain(Conn& conn, int64_t now) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn.rdbuf.append(buf, static_cast<size_t>(n));
        result_->bytes_received += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN, EOF or error: parse what we have
    }
    uint64_t matched = 0;
    size_t offset = 0;
    while (true) {
      tagg::net::FrameHeader header;
      std::string_view payload;
      size_t consumed = 0;
      tagg::Status error;
      const auto state = tagg::net::TryDecodeFrame(
          std::string_view(conn.rdbuf).substr(offset), false,
          tagg::net::kDefaultMaxPayloadBytes * 4, &header, &payload,
          &consumed, &error);
      if (state != tagg::net::FrameDecodeState::kFrame) {
        if (state == tagg::net::FrameDecodeState::kProtocolError) {
          ++result_->errors;
          conn.rdbuf.clear();
          offset = 0;
        }
        break;
      }
      offset += consumed;
      if (conn.pending.empty()) {
        ++result_->errors;  // a response nobody asked for
        continue;
      }
      const Pending p = conn.pending.front();
      conn.pending.pop_front();
      ++matched;
      if (header.opcode_or_status == kOk) {
        if (check_ && !check_(p.kind, payload)) {
          ++result_->errors;
          continue;
        }
        ++result_->ok;
        const double us = static_cast<double>(now - p.due_ns) * 1e-3;
        result_->latency_us[p.kind].Add(us);
        result_->all_latency_us.Add(us);
      } else if (header.opcode_or_status == kBusy) {
        ++result_->busy;
      } else {
        ++result_->errors;
      }
    }
    conn.rdbuf.erase(0, offset);
    return matched;
  }

 private:
  static constexpr uint8_t kOk = static_cast<uint8_t>(tagg::StatusCode::kOk);
  static constexpr uint8_t kBusy =
      static_cast<uint8_t>(tagg::StatusCode::kResourceExhausted);
  OpenLoopResult* result_;
  const ResponseCheck& check_;
};

/// Waits up to `wait_ns` for any connection to become readable.
void WaitReadable(std::vector<Conn>& conns, std::vector<pollfd>& pfds,
                  int64_t wait_ns) {
  timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
              static_cast<long>(wait_ns % 1'000'000'000)};
  for (size_t c = 0; c < conns.size(); ++c) {
    pfds[c] = {conns[c].fd, POLLIN, 0};
  }
  ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<int>& fds, double rate,
                           double seconds, const RequestSource& source,
                           const ResponseCheck& check, double drain_seconds) {
  // The default 50 us timer slack would make every wake-up late by up to
  // that much; the schedule wants the nanosecond timeout honoured.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  OpenLoopResult result;
  ResponseReader reader(&result, check);
  std::vector<Conn> conns(fds.size());
  for (size_t c = 0; c < fds.size(); ++c) conns[c].fd = fds[c];
  std::vector<pollfd> pfds(fds.size());

  const uint64_t total =
      static_cast<uint64_t>(std::llround(rate * seconds));
  const double interval_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 1'000'000;  // first request due in 1 ms
  auto due_of = [&](uint64_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
  };
  const int64_t drain_deadline =
      due_of(total) + static_cast<int64_t>(drain_seconds * 1e9);
  uint64_t outstanding = 0;
  uint64_t next = 0;
  PlannedRequest req;

  while (true) {
    const int64_t now = NowNs();
    if (next < total && now >= due_of(next)) {
      const int64_t due = due_of(next);
      Conn& conn = conns[next % conns.size()];
      source(next, &req);
      const int64_t sent_at = NowNs();
      if (!SendAll(conn.fd, req.frame)) {
        ++result.errors;
      } else {
        conn.pending.push_back({req.kind, due});
        ++outstanding;
        result.bytes_sent += req.frame.size();
      }
      result.late_us.Add(static_cast<double>(sent_at - due) * 1e-3);
      ++result.sent;
      ++next;
      // Read whatever has already arrived so a long send burst cannot
      // fill the server's outbox and stall both sides.
      for (Conn& c : conns) outstanding -= reader.Drain(c, NowNs());
      continue;
    }
    if (next >= total && outstanding == 0) break;
    if (now >= drain_deadline) break;
    const int64_t wake = next < total ? due_of(next) : drain_deadline;
    WaitReadable(conns, pfds, std::max<int64_t>(0, wake - now));
    const int64_t woke = NowNs();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents != 0) outstanding -= reader.Drain(conns[c], woke);
    }
  }
  result.unanswered = outstanding;
  result.elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return result;
}

OpenLoopResult RunClosedLoop(const std::vector<int>& fds, size_t depth,
                             double seconds, const RequestSource& source,
                             const ResponseCheck& check) {
  OpenLoopResult result;
  ResponseReader reader(&result, check);
  std::vector<Conn> conns(fds.size());
  for (size_t c = 0; c < fds.size(); ++c) conns[c].fd = fds[c];
  std::vector<pollfd> pfds(fds.size());
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  const int64_t deadline = stop + 5'000'000'000;
  uint64_t next = 0;
  uint64_t outstanding = 0;
  PlannedRequest req;
  auto fill = [&](Conn& conn) {
    while (conn.pending.size() < depth && NowNs() < stop) {
      source(next++, &req);
      const int64_t sent_at = NowNs();
      if (!SendAll(conn.fd, req.frame)) {
        ++result.errors;
        return;
      }
      conn.pending.push_back({req.kind, sent_at});
      ++outstanding;
      ++result.sent;
      result.bytes_sent += req.frame.size();
    }
  };
  for (Conn& c : conns) fill(c);
  while (outstanding > 0 && NowNs() < deadline) {
    WaitReadable(conns, pfds, 100'000'000);
    const int64_t now = NowNs();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      outstanding -= reader.Drain(conns[c], now);
      fill(conns[c]);
    }
  }
  result.unanswered = outstanding;
  result.elapsed_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return result;
}

void PinCallingThread(int index) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (index < 0) {
    for (int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
