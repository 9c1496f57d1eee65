#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "service/protocol.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

constexpr int kFrameTimeoutMs = 150'000;

/// Strips the quotes JSON puts around a captured string value.
std::string unquote(const std::string& value) {
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
    return value.substr(1, value.size() - 2);
  return value;
}

}  // namespace

ServedSession::ServedSession(const std::string& socket_path,
                             double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    try {
      connection_ = std::make_unique<fnr::service::Connection>(socket_path);
      return;
    } catch (const fnr::CheckError&) {
      FNR_CHECK_MSG(seconds_since(start) < timeout_s,
                    "fnrd did not accept on '" << socket_path << "' within "
                                               << timeout_s << " s");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

ServedCampaign ServedSession::run(const std::string& campaign,
                                  const std::string& spec_text) {
  ServedCampaign out;
  fnr::service::Connection& conn = *connection_;
  const auto recv = [&] {
    std::string payload = conn.recv(kFrameTimeoutMs);
    ++out.frames;
    out.bytes_in += payload.size() + 4;
    return payload;
  };
  const auto expect_type = [&](const std::string& payload,
                               const std::string& type) {
    const std::string got = unquote(json_field(payload, "type"));
    FNR_CHECK_MSG(got == type, "fnrd answered '" << got << "' where '" << type
                                                 << "' was due: "
                                                 << payload.substr(0, 300));
  };

  fnr::service::Request request;
  request.verb = fnr::service::Verb::Submit;
  request.campaign = campaign;
  request.spec_text = spec_text;
  const auto submitted = Clock::now();
  conn.send(fnr::service::serialize_request(request));
  expect_type(recv(), "submitted");
  out.submit_s = seconds_since(submitted);

  request = {};
  request.verb = fnr::service::Verb::Stream;
  request.campaign = campaign;
  const auto streamed = Clock::now();
  conn.send(fnr::service::serialize_request(request));
  for (;;) {
    const std::string payload = recv();
    const std::string type = unquote(json_field(payload, "type"));
    if (type == "end") {
      out.end_state = unquote(json_field(payload, "state"));
      break;
    }
    FNR_CHECK_MSG(type == "cell", "unexpected frame in STREAM: "
                                      << payload.substr(0, 300));
    if (out.cell_keys.empty()) out.first_result_s = seconds_since(submitted);
    out.cell_keys.push_back(unquote(json_field(payload, "key")));
  }
  out.stream_s = seconds_since(streamed);

  request = {};
  request.verb = fnr::service::Verb::Report;
  request.campaign = campaign;
  const auto reported = Clock::now();
  conn.send(fnr::service::serialize_request(request));
  const std::string payload = recv();
  expect_type(payload, "report");
  out.report = json_field(payload, "report");
  out.report_s = seconds_since(reported);
  out.campaign_s = seconds_since(submitted);
  return out;
}

double process_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = line.rfind(')');
  FNR_CHECK_MSG(close != std::string::npos,
                "cannot read /proc/" << pid << "/stat");
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int i = 3; i <= 13; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  FNR_CHECK_MSG(!fields.fail(), "malformed /proc stat line");
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  FNR_CHECK_MSG(false, "no VmHWM in /proc/" << pid << "/status");
  return 0.0;
}

}  // namespace perfbench
