CREATE TABLE Book (
    bid INTEGER PRIMARY KEY,
    title VARCHAR(255),
    author VARCHAR(255),
    year INTEGER,
    pubId UUID
);
CREATE TABLE Publisher (
    pubId UUID PRIMARY KEY,
    pname VARCHAR(255),
    country VARCHAR(255)
);
