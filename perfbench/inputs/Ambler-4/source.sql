CREATE TABLE Member (
    mid INTEGER,
    fname VARCHAR(255)
);
