CREATE TABLE Book (
    bid INTEGER PRIMARY KEY,
    title VARCHAR(255),
    author VARCHAR(255),
    year INTEGER,
    pubCode INTEGER
);
CREATE TABLE Publisher (
    pubCode INTEGER PRIMARY KEY,
    pname VARCHAR(255),
    country VARCHAR(255),
    city VARCHAR(255)
);
