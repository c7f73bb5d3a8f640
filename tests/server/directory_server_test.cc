#include "server/directory_server.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ldapbound {
namespace {

constexpr char kSchema[] = R"(
attribute name string
attribute uid string
attribute mail string
attribute ou string
key uid

class team : top {
  require ou
}
class person : top {
  require name, uid
  aux online
}
auxclass online {
  allow mail
}
structure {
  require team descendant person
  forbid person child top
}
)";

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

EntrySpec TeamSpec(const std::string& ou) {
  EntrySpec spec;
  spec.classes = {"team", "top"};
  spec.values = {{"ou", ou}};
  return spec;
}

EntrySpec PersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", uid}, {"name", "p " + uid}};
  return spec;
}

class DirectoryServerTest : public ::testing::Test {
 protected:
  DirectoryServerTest() : server_(DirectoryServer::Create(kSchema).value()) {
    // A team must employ someone: build it in one transaction.
    UpdateTransaction txn;
    txn.Insert(Dn("ou=research"), TeamSpec("research"));
    txn.Insert(Dn("uid=ada,ou=research"), PersonSpec("ada"));
    EXPECT_TRUE(server_.Apply(txn).ok());
  }

  DirectoryServer server_;
};

TEST(DirectoryServerCreateTest, RejectsBadSchemaText) {
  auto server = DirectoryServer::Create("class x : nowhere {\n}\n");
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(DirectoryServerCreateTest, RejectsInconsistentSchema) {
  auto server = DirectoryServer::Create(
      "class a : top {\n}\nclass b : top {\n}\n"
      "structure {\n"
      "  require-class a\n"
      "  require a descendant b\n"
      "  forbid a descendant b\n"
      "}\n");
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInconsistent);
}

TEST_F(DirectoryServerTest, AddAndSearch) {
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  auto hits = server_.Search("ou=research", "(objectClass=person)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(server_.stats().adds, 1u);
  EXPECT_EQ(server_.stats().searches, 1u);
}

TEST_F(DirectoryServerTest, SchemaGuardsAdd) {
  // A person with a child is forbidden.
  Status status =
      server_.Add(Dn("uid=x,uid=ada,ou=research"), PersonSpec("x"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // Duplicate key value.
  status = server_.Add(Dn("uid=ada2,ou=research"), PersonSpec("ada"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_EQ(server_.stats().rejected, 2u);
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, UnknownNamesAreRefusedWithoutInterning) {
  // Adds naming classes or attributes the schema never declared are
  // illegal; the write path refuses them by name and leaves the shared
  // vocabulary as it was.
  const size_t classes = server_.vocab().num_classes();
  const size_t attributes = server_.vocab().num_attributes();
  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i);
    EntrySpec spec = PersonSpec("fresh" + n);
    switch (i % 3) {
      case 0:
        spec.classes.push_back("newClass" + n);
        break;
      case 1:
        spec.values.emplace_back("newAttr" + n, "v");
        break;
      default:
        spec.values.emplace_back("objectClass", "viaValue" + n);
        break;
    }
    Status status = server_.Add(Dn("uid=fresh" + n + ",ou=research"), spec);
    ASSERT_EQ(status.code(), StatusCode::kIllegal) << status.ToString();
    const std::string name = i % 3 == 0   ? "newClass" + n
                             : i % 3 == 1 ? "newAttr" + n
                                          : "viaValue" + n;
    EXPECT_NE(status.message().find("'" + name + "'"), std::string::npos)
        << status.message();
  }
  EXPECT_EQ(server_.vocab().num_classes(), classes);
  EXPECT_EQ(server_.vocab().num_attributes(), attributes);
  EXPECT_EQ(server_.stats().rejected, 1000u);
  EXPECT_EQ(server_.directory().NumEntries(), 2u);
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, DeleteGuarded) {
  // Removing the only person violates team ->> person.
  Status status = server_.Delete(Dn("uid=ada,ou=research"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // With a second person, deletion is fine.
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  EXPECT_TRUE(server_.Delete(Dn("uid=ada,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(server_.stats().deletes, 1u);
}

TEST_F(DirectoryServerTest, ModifyValues) {
  AttributeId mail = *server_.vocab().FindAttribute("mail");
  ClassId online = *server_.vocab().FindClass("online");

  // Adding mail without the online class is a content violation...
  DirectoryServer::Modification add_mail;
  add_mail.kind = DirectoryServer::Modification::Kind::kAddValue;
  add_mail.attr = mail;
  add_mail.value = Value("ada@example.org");
  Status status = server_.Modify(Dn("uid=ada,ou=research"), {add_mail});
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_TRUE(server_.IsLegal());  // rolled back

  // ...but adding the class and the value together is fine.
  DirectoryServer::Modification add_online;
  add_online.kind = DirectoryServer::Modification::Kind::kAddClass;
  add_online.cls = online;
  ASSERT_TRUE(
      server_.Modify(Dn("uid=ada,ou=research"), {add_online, add_mail}).ok());
  auto hits = server_.Search("ou=research", "(mail=*)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(server_.stats().modifies, 1u);
}

TEST_F(DirectoryServerTest, ModifyClassesGuardedByStructure) {
  // Dropping ada's person class would break team ->> person: rolled back.
  ClassId person = *server_.vocab().FindClass("person");
  DirectoryServer::Modification drop;
  drop.kind = DirectoryServer::Modification::Kind::kRemoveClass;
  drop.cls = person;
  Status status = server_.Modify(Dn("uid=ada,ou=research"), {drop});
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_TRUE(server_.IsLegal());
  auto hits = server_.Search("ou=research", "(objectClass=person)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DirectoryServerTest, ModifyDnMovesSubtree) {
  // Second team, staffed, then move bob over.
  UpdateTransaction txn;
  txn.Insert(Dn("ou=ops"), TeamSpec("ops"));
  txn.Insert(Dn("uid=bob,ou=ops"), PersonSpec("bob"));
  ASSERT_TRUE(server_.Apply(txn).ok());
  ASSERT_TRUE(server_.Add(Dn("uid=eve,ou=ops"), PersonSpec("eve")).ok());

  ASSERT_TRUE(server_.ModifyDn(Dn("uid=bob,ou=ops"), Dn("ou=research")).ok());
  EXPECT_TRUE(ResolveDn(server_.directory(), Dn("uid=bob,ou=research")).ok());
  EXPECT_FALSE(ResolveDn(server_.directory(), Dn("uid=bob,ou=ops")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyDnGuarded) {
  // Moving ada out of research would leave the team personless.
  UpdateTransaction txn;
  txn.Insert(Dn("ou=ops"), TeamSpec("ops"));
  txn.Insert(Dn("uid=bob,ou=ops"), PersonSpec("bob"));
  ASSERT_TRUE(server_.Apply(txn).ok());
  Status status = server_.ModifyDn(Dn("uid=ada,ou=research"), Dn("ou=ops"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // Rolled back: ada is still where she was.
  EXPECT_TRUE(ResolveDn(server_.directory(), Dn("uid=ada,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyDnRename) {
  ASSERT_TRUE(server_
                  .ModifyDn(Dn("uid=ada,ou=research"), Dn("ou=research"),
                            "uid=lovelace")
                  .ok());
  EXPECT_TRUE(
      ResolveDn(server_.directory(), Dn("uid=lovelace,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyUnknownEntry) {
  EXPECT_EQ(server_.Modify(Dn("uid=ghost"), {}).code(),
            StatusCode::kNotFound);
}

TEST_F(DirectoryServerTest, ImportExportRoundTrip) {
  std::string ldif = server_.ExportLdif();
  auto server2 = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server2.ok());
  auto n = server2->ImportLdif(ldif);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(server2->ExportLdif(), ldif);
  EXPECT_TRUE(server2->IsLegal());
}

TEST_F(DirectoryServerTest, ImportRefusesIllegalData) {
  auto server2 = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server2.ok());
  // A lonely team (no person below) is illegal; import must refuse and
  // leave the directory empty.
  const char* bad =
      "dn: ou=empty\n"
      "objectClass: team\n"
      "objectClass: top\n"
      "ou: empty\n";
  auto n = server2->ImportLdif(bad);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIllegal);
  EXPECT_EQ(server2->directory().NumEntries(), 0u);
}

TEST_F(DirectoryServerTest, SearchStringErrors) {
  EXPECT_FALSE(server_.Search("ou=research", "((broken").ok());
  EXPECT_FALSE(server_.Search("ou=nowhere", "(uid=*)").ok());
}

TEST_F(DirectoryServerTest, StatsAreASnapshot) {
  DirectoryServer::Stats before = server_.stats();
  ASSERT_TRUE(server_.Search("", "(uid=ada)").ok());
  ASSERT_TRUE(
      server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  // The earlier snapshot is unchanged; a fresh one sees the traffic.
  EXPECT_EQ(before.searches, 0u);
  DirectoryServer::Stats after = server_.stats();
  EXPECT_EQ(after.searches, 1u);
  EXPECT_EQ(after.adds, 1u);
}

// Key checks with MVCC on answer from the writer's value postings. These
// pin the posting upkeep the check relies on: rollbacks, deletes and
// modifies must leave exactly the surviving holders in each posting.

EntryId IdOf(const DirectoryServer& server, const std::string& dn) {
  return *ResolveDn(server.directory(), Dn(dn));
}

std::vector<EntryId> PinnedHolders(const DirectoryServer& server,
                                   const std::string& uid) {
  PinnedSnapshot snap = server.PinSnapshot();
  AttributeId attr = *server.vocab().FindAttribute("uid");
  const std::vector<EntryId>* posting = snap->ValuePosting(attr, Value(uid));
  return posting == nullptr ? std::vector<EntryId>() : *posting;
}

DirectoryServer::Modification ValueMod(const DirectoryServer& server,
                                       DirectoryServer::Modification::Kind kind,
                                       const std::string& uid) {
  DirectoryServer::Modification mod;
  mod.kind = kind;
  mod.attr = *server.vocab().FindAttribute("uid");
  mod.value = Value(uid);
  return mod;
}

TEST_F(DirectoryServerTest, ModifyKeyCheckWithMvcc) {
  using Kind = DirectoryServer::Modification::Kind;
  server_.EnableMvcc();
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());

  // Replacing bob's uid with ada's duplicates a key: refused, rolled back.
  Status status = server_.Modify(
      Dn("uid=bob,ou=research"),
      {ValueMod(server_, Kind::kRemoveValue, "bob"),
       ValueMod(server_, Kind::kAddValue, "ada")});
  EXPECT_EQ(status.code(), StatusCode::kIllegal) << status.ToString();
  EXPECT_NE(status.message().find("duplicate value for key attribute 'uid'"),
            std::string::npos);
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(PinnedHolders(server_, "ada"),
            std::vector<EntryId>{IdOf(server_, "uid=ada,ou=research")});
  EXPECT_EQ(PinnedHolders(server_, "bob"),
            std::vector<EntryId>{IdOf(server_, "uid=bob,ou=research")});

  // A fresh uid is accepted, and frees the old one for reuse.
  ASSERT_TRUE(server_
                  .Modify(Dn("uid=bob,ou=research"),
                          {ValueMod(server_, Kind::kRemoveValue, "bob"),
                           ValueMod(server_, Kind::kAddValue, "robert")})
                  .ok());
  EXPECT_TRUE(
      server_
          .Modify(Dn("uid=ada,ou=research"),
                  {ValueMod(server_, Kind::kAddValue, "bob")})
          .ok());
  EXPECT_EQ(PinnedHolders(server_, "bob"),
            std::vector<EntryId>{IdOf(server_, "uid=ada,ou=research")});
  EXPECT_EQ(server_
                .Modify(Dn("uid=ada,ou=research"),
                        {ValueMod(server_, Kind::kAddValue, "robert")})
                .code(),
            StatusCode::kIllegal);
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(server_.stats().modifies, 2u);
}

TEST_F(DirectoryServerTest, KeyPostingsSurviveRollbackAndDelete) {
  server_.EnableMvcc();
  ASSERT_TRUE(server_.Add(Dn("uid=x,ou=research"), PersonSpec("x")).ok());
  const EntryId first = IdOf(server_, "uid=x,ou=research");

  // A second holder of uid x is refused; its rollback leaves the posting.
  EXPECT_EQ(server_.Add(Dn("uid=x2,ou=research"), PersonSpec("x")).code(),
            StatusCode::kIllegal);
  EXPECT_FALSE(ResolveDn(server_.directory(), Dn("uid=x2,ou=research")).ok());
  EXPECT_EQ(PinnedHolders(server_, "x"), std::vector<EntryId>{first});

  // Deleting the holder frees the value: a new holder is accepted, and a
  // further duplicate is still refused.
  ASSERT_TRUE(server_.Delete(Dn("uid=x,ou=research")).ok());
  EXPECT_TRUE(PinnedHolders(server_, "x").empty());
  ASSERT_TRUE(server_.Add(Dn("uid=x3,ou=research"), PersonSpec("x")).ok());
  EXPECT_EQ(server_.Add(Dn("uid=x4,ou=research"), PersonSpec("x")).code(),
            StatusCode::kIllegal);
  EXPECT_EQ(PinnedHolders(server_, "x"),
            std::vector<EntryId>{IdOf(server_, "uid=x3,ou=research")});
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, DeleteAndReAddKeyInOneTxnSameVerdict) {
  // Theorem 4.1 order: the add is checked before the delete applies, so
  // the old holder still counts. The verdict must not depend on whether
  // the key check probes postings or scans D.
  auto verdict = [](bool mvcc) {
    DirectoryServer server = DirectoryServer::Create(kSchema).value();
    UpdateTransaction seed;
    seed.Insert(Dn("ou=research"), TeamSpec("research"));
    seed.Insert(Dn("uid=ada,ou=research"), PersonSpec("ada"));
    seed.Insert(Dn("uid=a,ou=research"), PersonSpec("x"));
    EXPECT_TRUE(server.Apply(seed).ok());
    if (mvcc) server.EnableMvcc();
    UpdateTransaction txn;
    txn.Delete(Dn("uid=a,ou=research"));
    txn.Insert(Dn("uid=b,ou=research"), PersonSpec("x"));
    Status status = server.Apply(txn);
    EXPECT_TRUE(server.IsLegal());
    return std::make_pair(status.code(), status.message());
  };
  auto with_postings = verdict(true);
  auto with_scan = verdict(false);
  EXPECT_EQ(with_postings.first, StatusCode::kIllegal);
  EXPECT_EQ(with_postings, with_scan);
}

TEST_F(DirectoryServerTest, ConcurrentSearchesWhileStatsMutate) {
  // The documented concurrency contract: const Searches may run
  // concurrently with each other and with the stats they bump. Hammer
  // Search from several threads; under TSan this is the regression test
  // for the atomic counters, and the final count proves no lost updates.
  constexpr int kThreads = 8;
  constexpr int kSearchesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kSearchesPerThread; ++i) {
        auto hits = server_.Search("", "(objectClass=person)");
        ASSERT_TRUE(hits.ok());
        ASSERT_EQ(hits->size(), 1u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(server_.stats().searches,
            static_cast<size_t>(kThreads) * kSearchesPerThread);
}

}  // namespace
}  // namespace ldapbound
