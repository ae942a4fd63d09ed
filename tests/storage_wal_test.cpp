#include "storage/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace escape::storage {
namespace {

rpc::LogEntry entry(Term t, LogIndex i) {
  rpc::LogEntry e;
  e.term = t;
  e.index = i;
  e.command = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(t)};
  return e;
}

TEST(MemoryWalTest, AppendTruncateReplay) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  wal.append(entry(1, 2));
  wal.append(entry(1, 3));
  wal.truncate_from(2);
  wal.append(entry(2, 2));
  ASSERT_EQ(wal.entries().size(), 2u);
  EXPECT_EQ(wal.entries()[0].term, 1);
  EXPECT_EQ(wal.entries()[1].term, 2);
}

TEST(MemoryWalTest, NonContiguousAppendThrows) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  EXPECT_THROW(wal.append(entry(1, 3)), std::logic_error);
}

TEST(MemoryWalTest, AppendBatchMatchesLoopOfAppends) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  wal.append_batch({entry(1, 2), entry(1, 3), entry(2, 4)});
  ASSERT_EQ(wal.entries().size(), 4u);
  for (LogIndex i = 1; i <= 4; ++i) {
    EXPECT_EQ(wal.entries()[static_cast<std::size_t>(i - 1)].index, i);
  }
  // Contiguity is enforced across the batch boundary too.
  EXPECT_THROW(wal.append_batch({entry(2, 7)}), std::logic_error);
}

class FileWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("escape_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string wal_path() const { return (dir_ / "node.wal").string(); }
  std::filesystem::path dir_;
};

TEST_F(FileWalTest, FreshFileRecoversEmpty) {
  FileWal wal(wal_path());
  EXPECT_TRUE(wal.recovered_entries().empty());
}

TEST_F(FileWalTest, AppendThenRecover) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 10; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 10u);
  for (LogIndex i = 1; i <= 10; ++i) {
    EXPECT_EQ(reopened.recovered_entries()[static_cast<std::size_t>(i - 1)], entry(1, i));
  }
}

TEST_F(FileWalTest, TruncateRecordsReplay) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 5; ++i) wal.append(entry(1, i));
    wal.truncate_from(3);
    wal.append(entry(2, 3));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 3u);
  EXPECT_EQ(reopened.recovered_entries()[2].term, 2);
}

TEST_F(FileWalTest, TornTailRecordDiscarded) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 4; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  // Simulate a torn write: chop bytes off the end of the file.
  const auto size = std::filesystem::file_size(wal_path());
  std::filesystem::resize_file(wal_path(), size - 3);

  FileWal reopened(wal_path());
  EXPECT_EQ(reopened.recovered_entries().size(), 3u);
  // The WAL must remain appendable after truncating the torn record.
  reopened.append(entry(1, 4));
  reopened.sync();
  FileWal again(wal_path());
  EXPECT_EQ(again.recovered_entries().size(), 4u);
}

TEST_F(FileWalTest, CorruptMiddleRecordStopsReplay) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 6; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  // Flip a byte roughly in the middle of the file (inside record ~3).
  const auto size = std::filesystem::file_size(wal_path());
  std::fstream f(wal_path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<long>(size / 2));
  char b = 0x5A;
  f.write(&b, 1);
  f.close();

  FileWal reopened(wal_path());
  // Everything before the corrupt record survives; everything after is
  // conservatively dropped.
  EXPECT_LT(reopened.recovered_entries().size(), 6u);
  for (std::size_t i = 0; i < reopened.recovered_entries().size(); ++i) {
    EXPECT_EQ(reopened.recovered_entries()[i].index, static_cast<LogIndex>(i + 1));
  }
}

TEST_F(FileWalTest, ReopenAppendReopen) {
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    wal.sync();
  }
  {
    FileWal wal(wal_path());
    ASSERT_EQ(wal.recovered_entries().size(), 1u);
    wal.append(entry(1, 2));
    wal.sync();
  }
  FileWal wal(wal_path());
  EXPECT_EQ(wal.recovered_entries().size(), 2u);
}

TEST_F(FileWalTest, AppendBatchRecoversAllRecords) {
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    std::vector<rpc::LogEntry> batch;
    for (LogIndex i = 2; i <= 9; ++i) batch.push_back(entry(1, i));
    wal.append_batch(batch);  // one buffered write for the whole group
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 9u);
  for (LogIndex i = 1; i <= 9; ++i) {
    EXPECT_EQ(reopened.recovered_entries()[static_cast<std::size_t>(i - 1)], entry(1, i));
  }
}

TEST_F(FileWalTest, TornTailInsideBatchRecoversPrefix) {
  // A crash mid-group-commit tears the batch's single write. Each record in
  // the buffer is individually framed and checksummed, so replay keeps the
  // batch's intact prefix and discards only the torn tail — exactly the
  // guarantee the group-commit driver relies on: a batch is all-durable only
  // after sync(), but a partial batch never corrupts recovery.
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    wal.append_batch({entry(1, 2), entry(1, 3), entry(1, 4), entry(1, 5)});
    wal.sync();
  }
  // Tear into the middle of the batch: chop the last record plus a few bytes
  // of the one before it.
  const auto size = std::filesystem::file_size(wal_path());
  std::filesystem::resize_file(wal_path(), size - (size / 4));

  FileWal reopened(wal_path());
  const auto& recovered = reopened.recovered_entries();
  ASSERT_GE(recovered.size(), 1u);
  ASSERT_LT(recovered.size(), 5u);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], entry(1, static_cast<LogIndex>(i + 1)));
  }
  // Appendable after the tear: the next incarnation re-replicates the rest.
  const LogIndex next = recovered.back().index + 1;
  reopened.append(entry(2, next));
  reopened.sync();
  FileWal again(wal_path());
  ASSERT_EQ(again.recovered_entries().size(), recovered.size() + 1);
  EXPECT_EQ(again.recovered_entries().back().term, 2);
}

TEST_F(FileWalTest, TruncateToEmptyThenRebuild) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 3; ++i) wal.append(entry(1, i));
    wal.truncate_from(1);
    wal.append(entry(5, 1));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 1u);
  EXPECT_EQ(reopened.recovered_entries()[0].term, 5);
}

}  // namespace
}  // namespace escape::storage
