// Server-less file sharing with semantic links, live on the protocol
// simulator: SemanticClient peers keep LRU lists of past uploaders and
// resolve downloads peer-to-peer, touching the index server only on a miss.
// This is the client extension the paper's conclusion announces for
// MLdonkey.
//
//   ./examples/semantic_overlay

#include <iostream>
#include <memory>
#include <vector>

#include "src/common/table.h"
#include "src/net/server.h"
#include "src/semantic/semantic_client.h"
#include "src/workload/geography.h"

int main() {
  const edk::Geography geography = edk::Geography::PaperDistribution();
  edk::SimNetwork network(&geography, edk::SimNetConfig{.seed = 2026});
  edk::SimServer server(&network, edk::ServerConfig{});
  server.set_attachment(geography.FindCountry("DE"), edk::AsId(3));

  // Two interest communities, 8 peers each. Community c shares files
  // c*100 .. c*100+19; every peer starts with a random half of them.
  constexpr int kCommunities = 2;
  constexpr int kPeersPerCommunity = 8;
  constexpr int kFilesPerCommunity = 20;
  edk::Rng rng(7);

  std::vector<std::unique_ptr<edk::SemanticClient>> peers;
  std::vector<std::vector<edk::SharedFileInfo>> wishlists;
  for (int c = 0; c < kCommunities; ++c) {
    for (int p = 0; p < kPeersPerCommunity; ++p) {
      edk::ClientConfig config;
      config.nickname = "peer" + std::to_string(c) + "_" + std::to_string(p);
      config.block_size = 2048;
      config.content_scale = 0.0001;
      auto peer = std::make_unique<edk::SemanticClient>(&network, config,
                                                        /*list_size=*/5);
      const edk::CountryId country = c == 0 ? geography.FindCountry("FR")
                                            : geography.FindCountry("ES");
      peer->set_attachment(country, geography.SampleAs(country, rng));
      peer->Connect(server.node_id(), nullptr);

      std::vector<edk::SharedFileInfo> wishlist;
      for (int f = 0; f < kFilesPerCommunity; ++f) {
        const auto info = edk::SimClient::MakeFileInfo(
            edk::FileId(static_cast<uint32_t>(c * 100 + f)), 50'000'000,
            "community" + std::to_string(c) + " file" + std::to_string(f) + ".avi");
        if (rng.NextBool(0.5)) {
          peer->AddLocalFile(info);
        } else {
          wishlist.push_back(info);
        }
      }
      peers.push_back(std::move(peer));
      wishlists.push_back(std::move(wishlist));
    }
  }
  network.Run();
  for (auto& peer : peers) {
    peer->Publish();
  }
  network.Run();

  // Every peer fetches its wishlist, one file per round, so semantic lists
  // warm up.
  uint64_t fetched = 0;
  for (size_t round = 0; round < 20; ++round) {
    for (size_t p = 0; p < peers.size(); ++p) {
      if (round < wishlists[p].size()) {
        peers[p]->FetchFile(wishlists[p][round], [&fetched](edk::FetchOutcome outcome) {
          fetched += outcome.success ? 1 : 0;
        });
      }
    }
    network.Run();
  }

  uint64_t semantic = 0;
  uint64_t via_server = 0;
  uint64_t failures = 0;
  for (const auto& peer : peers) {
    semantic += peer->semantic_hits();
    via_server += peer->server_hits();
    failures += peer->fetch_failures();
  }
  edk::AsciiTable table({"outcome", "count"});
  table.AddRow({"fetched successfully", std::to_string(fetched)});
  table.AddRow({"resolved via semantic neighbours", std::to_string(semantic)});
  table.AddRow({"resolved via server", std::to_string(via_server)});
  table.AddRow({"failures", std::to_string(failures)});
  table.Print(std::cout);
  std::cout << "\nsemantic share: "
            << edk::FormatPercent(static_cast<double>(semantic) /
                                  static_cast<double>(std::max<uint64_t>(1, semantic + via_server)))
            << " of successful fetches never touched the server\n";

  // Peek at one peer's semantic neighbourhood: it should point into its own
  // community.
  const auto neighbours = peers[0]->SemanticNeighbours();
  std::cout << "peer0_0's semantic neighbours (node ids): ";
  for (edk::NodeId n : neighbours) {
    std::cout << n << ' ';
  }
  std::cout << "\n(community 0 occupies node ids 1.."
            << kPeersPerCommunity << ")\n";
  return 0;
}
