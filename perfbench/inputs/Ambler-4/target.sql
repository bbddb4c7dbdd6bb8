CREATE TABLE Member (
    mid INTEGER,
    firstName VARCHAR(255)
);
