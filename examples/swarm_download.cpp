// Multi-source swarming download, live on the protocol simulator: a large
// file spreads from one seed to a flash crowd of leeches. Each leech uses
// the DownloadManager — source discovery through its server plus UDP
// queries to the other servers, concurrent block transfers, per-block MD4
// verification, and partial sharing, so leeches serve each other while
// still downloading (paper §2.1's feature list, end to end).
//
//   ./examples/swarm_download    (exits 1 if any leech fails)

#include <iostream>
#include <memory>
#include <vector>

#include "src/common/table.h"
#include "src/net/download_manager.h"
#include "src/net/server.h"

int main() {
  const edk::Geography geography = edk::Geography::PaperDistribution();
  edk::SimNetwork network(&geography, edk::SimNetConfig{.seed = 4321});
  edk::Rng rng(4321);  // Attachments and uplinks.

  // Two servers, meshed; clients split between them.
  std::vector<std::unique_ptr<edk::SimServer>> servers;
  for (int s = 0; s < 2; ++s) {
    auto server = std::make_unique<edk::SimServer>(&network, edk::ServerConfig{});
    const edk::CountryId country =
        s == 0 ? geography.FindCountry("DE") : geography.FindCountry("FR");
    server->set_attachment(country, geography.SampleAs(country, rng));
    servers.push_back(std::move(server));
  }
  for (auto& a : servers) {
    for (auto& b : servers) {
      a->AddKnownServer(b->node_id());
    }
  }

  auto make_client = [&](const std::string& nickname, size_t server_index) {
    edk::ClientConfig config;
    config.nickname = nickname;
    config.block_size = 4'096;
    config.content_scale = 1.0 / 8192.0;  // 700 MB -> ~87 KB moved.
    config.uplink_bytes_per_second =
        network.latency().SampleUplinkBytesPerSecond(rng);
    auto client = std::make_unique<edk::SimClient>(&network, config);
    const edk::CountryId country = geography.SampleCountry(rng);
    client->set_attachment(country, geography.SampleAs(country, rng));
    client->Connect(servers[server_index]->node_id(), nullptr);
    return client;
  };

  // One seed with a 700 MB DIVX file, published on server 0.
  const auto movie =
      edk::SimClient::MakeFileInfo(edk::FileId(1), 700ull << 20, "big movie.avi");
  auto seed = make_client("seed", 0);
  seed->AddLocalFile(movie);
  network.Run();

  // A flash crowd of 12 leeches spread over both servers.
  constexpr int kLeeches = 12;
  std::vector<std::unique_ptr<edk::SimClient>> leeches;
  std::vector<std::unique_ptr<edk::DownloadManager>> managers;
  std::vector<edk::MultiSourceReport> reports(kLeeches);
  for (int i = 0; i < kLeeches; ++i) {
    leeches.push_back(make_client("leech" + std::to_string(i), i % 2));
  }
  network.Run();

  edk::MultiSourceConfig manager_config;
  manager_config.source_requery_interval = 120.0;  // Compressed timescale.
  for (int i = 0; i < kLeeches; ++i) {
    managers.push_back(std::make_unique<edk::DownloadManager>(
        &network, leeches[i].get(), manager_config));
    // Stagger the joins: the crowd arrives over ~10 minutes.
    const double delay = 60.0 * i;
    network.ScheduleOn(leeches[i]->node_id(), delay, [&managers, &reports, &movie, i] {
      managers[i]->Fetch(movie, [&reports, i](const edk::MultiSourceReport& report) {
        reports[i] = report;
      });
    });
  }
  network.Run();

  edk::AsciiTable table({"leech", "success", "sources used", "corrupted (retried)",
                         "duration"});
  int successes = 0;
  for (int i = 0; i < kLeeches; ++i) {
    const auto& report = reports[i];
    successes += report.success ? 1 : 0;
    table.AddRow({"leech" + std::to_string(i), report.success ? "yes" : "NO",
                  std::to_string(report.sources_used),
                  std::to_string(report.corrupted_blocks),
                  edk::AsciiTable::FormatCell(report.duration_seconds) + " s"});
  }
  table.Print(std::cout);

  std::cout << "\n" << successes << "/" << kLeeches
            << " leeches completed; late joiners found "
            << "multiple sources because early leeches republished partials.\n";
  std::cout << "every transferred block was MD4-verified against the hashset; "
            << "the file id scheme is the eDonkey per-block MD4 construction.\n";
  return successes == kLeeches ? 0 : 1;
}
